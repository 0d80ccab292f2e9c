package bytecode

import (
	"fmt"
	"strings"
)

// BaseKind classifies a field type descriptor.
type BaseKind uint8

// Descriptor base kinds.
const (
	KByte BaseKind = iota
	KChar
	KDouble
	KFloat
	KInt
	KLong
	KShort
	KBoolean
	KObject
	KArray
	KVoid
)

// Type is a parsed field/return type descriptor.
type Type struct {
	Kind      BaseKind
	ClassName string // for KObject: internal class name
	Elem      *Type  // for KArray: element type
}

// Slots returns the number of operand-stack / local-variable slots the
// type occupies: 2 for long and double, 0 for void, 1 otherwise.
func (t Type) Slots() int {
	switch t.Kind {
	case KLong, KDouble:
		return 2
	case KVoid:
		return 0
	}
	return 1
}

// String renders the type back into descriptor syntax.
func (t Type) String() string {
	switch t.Kind {
	case KByte:
		return "B"
	case KChar:
		return "C"
	case KDouble:
		return "D"
	case KFloat:
		return "F"
	case KInt:
		return "I"
	case KLong:
		return "J"
	case KShort:
		return "S"
	case KBoolean:
		return "Z"
	case KVoid:
		return "V"
	case KObject:
		return "L" + t.ClassName + ";"
	case KArray:
		return "[" + t.Elem.String()
	}
	return "?"
}

// MethodType is a parsed method descriptor.
type MethodType struct {
	Params []Type
	Ret    Type
}

// ParamSlots returns the total local-variable slots consumed by the
// parameters (not counting the receiver).
func (m MethodType) ParamSlots() int {
	n := 0
	for _, p := range m.Params {
		n += p.Slots()
	}
	return n
}

// String renders the method type back into descriptor syntax.
func (m MethodType) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for _, p := range m.Params {
		b.WriteString(p.String())
	}
	b.WriteByte(')')
	b.WriteString(m.Ret.String())
	return b.String()
}

// ParseType parses a single field type descriptor such as "I",
// "Ljava/lang/String;" or "[[D". Successful parses are memoized (the
// resolve path re-parses the same descriptors on every field access and
// invocation), so repeat calls allocate nothing; returned values are
// shared and must be treated as immutable.
func ParseType(desc string) (Type, error) {
	t, err := sharedType(desc)
	if err != nil {
		return Type{}, err
	}
	return *t, nil
}

// sharedType is ParseType returning the cache's own copy.
func sharedType(desc string) (*Type, error) {
	if t, ok := typeCache.get(desc); ok {
		descHits.Add(1)
		return t, nil
	}
	descMisses.Add(1)
	t, rest, err := parseType(desc, false)
	if err != nil {
		return nil, err
	}
	if rest != "" {
		return nil, fmt.Errorf("descriptor: trailing characters %q in %q", rest, desc)
	}
	typeCache.put(desc, &t)
	return &t, nil
}

func parseType(s string, allowVoid bool) (Type, string, error) {
	if s == "" {
		return Type{}, "", fmt.Errorf("descriptor: empty type")
	}
	switch s[0] {
	case 'B':
		return Type{Kind: KByte}, s[1:], nil
	case 'C':
		return Type{Kind: KChar}, s[1:], nil
	case 'D':
		return Type{Kind: KDouble}, s[1:], nil
	case 'F':
		return Type{Kind: KFloat}, s[1:], nil
	case 'I':
		return Type{Kind: KInt}, s[1:], nil
	case 'J':
		return Type{Kind: KLong}, s[1:], nil
	case 'S':
		return Type{Kind: KShort}, s[1:], nil
	case 'Z':
		return Type{Kind: KBoolean}, s[1:], nil
	case 'V':
		if !allowVoid {
			return Type{}, "", fmt.Errorf("descriptor: void only valid as return type")
		}
		return Type{Kind: KVoid}, s[1:], nil
	case 'L':
		end := strings.IndexByte(s, ';')
		if end <= 1 {
			return Type{}, "", fmt.Errorf("descriptor: unterminated class type in %q", s)
		}
		name := s[1:end]
		if name == "" || strings.ContainsAny(name, ".;[") {
			return Type{}, "", fmt.Errorf("descriptor: malformed class name %q", name)
		}
		return Type{Kind: KObject, ClassName: name}, s[end+1:], nil
	case '[':
		dims := 0
		for dims < len(s) && s[dims] == '[' {
			dims++
		}
		if dims > 255 {
			return Type{}, "", fmt.Errorf("descriptor: more than 255 array dimensions")
		}
		elem, rest, err := parseType(s[dims:], false)
		if err != nil {
			return Type{}, "", err
		}
		t := elem
		for i := 0; i < dims; i++ {
			e := t
			t = Type{Kind: KArray, Elem: &e}
		}
		return t, rest, nil
	}
	return Type{}, "", fmt.Errorf("descriptor: unknown type character %q", s[0])
}

// ParseMethodType parses a method descriptor such as
// "(ILjava/lang/String;)V". Successful parses are memoized like
// ParseType's; the returned MethodType (including its Params slice) is
// shared and must be treated as immutable.
func ParseMethodType(desc string) (MethodType, error) {
	mt, err := sharedMethodType(desc)
	if err != nil {
		return MethodType{}, err
	}
	return *mt, nil
}

// sharedMethodType is ParseMethodType returning the cache's own copy.
func sharedMethodType(desc string) (*MethodType, error) {
	if mt, ok := methodCache.get(desc); ok {
		descHits.Add(1)
		return mt, nil
	}
	descMisses.Add(1)
	return parseMethodTypeUncached(desc)
}

func parseMethodTypeUncached(desc string) (*MethodType, error) {
	if desc == "" || desc[0] != '(' {
		return nil, fmt.Errorf("descriptor: method descriptor %q must start with '('", desc)
	}
	s := desc[1:]
	mt := new(MethodType)
	for {
		if s == "" {
			return nil, fmt.Errorf("descriptor: unterminated parameter list in %q", desc)
		}
		if s[0] == ')' {
			s = s[1:]
			break
		}
		t, rest, err := parseType(s, false)
		if err != nil {
			return nil, fmt.Errorf("descriptor: %q: %v", desc, err)
		}
		mt.Params = append(mt.Params, t)
		if len(mt.Params) > 255 {
			return nil, fmt.Errorf("descriptor: more than 255 parameters in %q", desc)
		}
		s = rest
	}
	ret, rest, err := parseType(s, true)
	if err != nil {
		return nil, fmt.Errorf("descriptor: %q: %v", desc, err)
	}
	if rest != "" {
		return nil, fmt.Errorf("descriptor: trailing characters after return type in %q", desc)
	}
	mt.Ret = ret
	methodCache.put(desc, mt)
	return mt, nil
}
