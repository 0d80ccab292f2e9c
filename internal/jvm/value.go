// Package jvm implements the DVM client runtime: a Java bytecode
// interpreter with class loading and linking, an object model, exception
// handling, a mark-sweep garbage collector, and native implementations of
// the core library subset the DVM services and benchmark workloads rely
// on (java/lang, java/io, java/util pieces).
//
// The same runtime is configured two ways in the evaluation, exactly as
// the paper does with the Sun JDK ("identical software ... under
// different service architectures"):
//
//   - monolithic mode: the client runs its own verifier, JDK1.2-style
//     stack-introspection security, and local auditing;
//   - DVM mode: those services are disabled locally, and the runtime
//     instead hosts the small dynamic service components (RTVerifier link
//     checks, the security enforcement manager, the audit stub) invoked
//     by code the network proxy injected.
package jvm

import "fmt"

// Kind tags a Value.
type Kind uint8

// Value kinds. Pad marks the second slot of a long/double in operand
// stacks and local variable arrays; RetAddr is a jsr return address.
const (
	KindInt Kind = iota
	KindLong
	KindFloat
	KindDouble
	KindRef
	KindPad
	KindRetAddr
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindFloat:
		return "float"
	case KindDouble:
		return "double"
	case KindRef:
		return "ref"
	case KindPad:
		return "pad"
	case KindRetAddr:
		return "retaddr"
	}
	return "?"
}

// Value is one operand-stack or local-variable slot. Ints (and the
// boolean/byte/char/short family) live sign-extended in I; longs in I;
// floats and doubles in F; references in R.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	R    *Object
}

// Slot constructors.
func IntV(v int32) Value      { return Value{Kind: KindInt, I: int64(v)} }
func LongV(v int64) Value     { return Value{Kind: KindLong, I: v} }
func FloatV(v float32) Value  { return Value{Kind: KindFloat, F: float64(v)} }
func DoubleV(v float64) Value { return Value{Kind: KindDouble, F: v} }
func RefV(o *Object) Value    { return Value{Kind: KindRef, R: o} }
func NullV() Value            { return Value{Kind: KindRef} }
func padV() Value             { return Value{Kind: KindPad} }
func retAddrV(idx int) Value  { return Value{Kind: KindRetAddr, I: int64(idx)} }

// Int returns the int32 view of an int-kinded value.
func (v Value) Int() int32 { return int32(v.I) }

// Long returns the int64 view.
func (v Value) Long() int64 { return v.I }

// Float returns the float32 view.
func (v Value) Float() float32 { return float32(v.F) }

// Double returns the float64 view.
func (v Value) Double() float64 { return v.F }

// Ref returns the reference view (nil for Java null).
func (v Value) Ref() *Object { return v.R }

// Wide reports whether the value occupies two slots.
func (v Value) Wide() bool { return v.Kind == KindLong || v.Kind == KindDouble }

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("int:%d", int32(v.I))
	case KindLong:
		return fmt.Sprintf("long:%d", v.I)
	case KindFloat:
		return fmt.Sprintf("float:%g", float32(v.F))
	case KindDouble:
		return fmt.Sprintf("double:%g", v.F)
	case KindRef:
		if v.R == nil {
			return "null"
		}
		return "ref:" + v.R.Class.Name
	case KindPad:
		return "pad"
	case KindRetAddr:
		return fmt.Sprintf("retaddr:%d", v.I)
	}
	return "?"
}

// zeroValueFor returns the default value for a field/array element of the
// given descriptor kind.
func zeroValueFor(desc string) Value {
	if desc == "" {
		return NullV()
	}
	switch desc[0] {
	case 'B', 'C', 'I', 'S', 'Z':
		return IntV(0)
	case 'J':
		return LongV(0)
	case 'F':
		return FloatV(0)
	case 'D':
		return DoubleV(0)
	}
	return NullV()
}
