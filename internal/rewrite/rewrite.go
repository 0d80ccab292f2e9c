// Package rewrite is the DVM's binary rewriting engine: the mechanism
// every static service component uses to inject dynamic-service calls
// into application code (paper §2: "The glue that ties the static and
// dynamic service components together is binary rewriting").
//
// It provides two layers:
//
//   - MethodEditor: the decoded form of one method body — built once per
//     method and shared by every stage — with snippet splicing at arbitrary
//     positions, branch/exception-table fixup, and re-encoding with
//     max_stack recomputed.
//   - Pipeline: the proxy-side filter API of §3 — "an internal filtering
//     API allows the logically separate services ... to be composed on
//     the proxy host. Parsing and code generation are performed only once
//     for all static services, while structuring the services as
//     independent code-transformation filters enables them to be stacked
//     according to site-specific requirements."
package rewrite

import (
	"fmt"
	"slices"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// MethodEditor is the one decoded form of a method body: the instruction
// list, the exception table in instruction indices and the Code header it
// came from. It is built once per method and memoized on the member, so
// every stage of a pipeline run — verifier phases 2–3, Instrument, the
// security and monitor filters, the compiler's fusion pass — finds the
// same editor through DecodeMethod/EditMethod rather than decoding again,
// and Commit keeps it describing the bytes it just wrote. Splice with
// InsertAt and call Commit to re-encode into the classfile.
type MethodEditor struct {
	cf     *classfile.ClassFile
	sc     *scratch // cf's arena: Insts, pcIdx and code.Bytecode after a Commit are its storage
	member *classfile.Member
	code   *classfile.Code
	// attr and info identify the Code attribute payload this form
	// describes; the memo is reused only while the member, in the same
	// class, still carries exactly that payload.
	attr *classfile.Attribute
	info []byte

	// Insts is the instruction list, in the class's arena like everything
	// else here: it lives until ClassFile.Release and must not be kept past
	// it. The Insert methods grow it in the arena; a stage may shrink or
	// rewrite it in place.
	Insts []bytecode.Inst
	// Handlers is the exception table over Insts.
	Handlers []Handler
	// MaxLocals may be raised by snippets that need scratch locals.
	MaxLocals int

	pcIdx      bytecode.PCIndex // of code.Bytecode; nil until asked for after a Commit
	handlerErr error            // the exception table is off instruction boundaries
	edited     bool             // spliced since the last Commit
}

// Handler is one exception table entry in instruction indices; End is
// exclusive and may equal len(Insts).
type Handler struct {
	Start, End, Target int
	CatchType          uint16
}

// DecodeMethod returns the decoded form of the method's body, building
// and memoizing it on first use; (nil, nil) for methods without code
// (abstract/native). It succeeds even when the exception table does not
// sit on instruction boundaries — the verifier reports that itself, after
// its operand checks — in which case Handlers is nil and EditMethod
// refuses the method.
func DecodeMethod(cf *classfile.ClassFile, m *classfile.Member) (*MethodEditor, error) {
	attr := cf.FindAttr(m.Attributes, classfile.AttrCode)
	if attr == nil {
		return nil, nil
	}
	if ed, ok := m.Decoded().(*MethodEditor); ok && !ed.edited && ed.cf == cf && ed.member == m && ed.attr == attr &&
		len(ed.info) == len(attr.Info) && (len(attr.Info) == 0 || &ed.info[0] == &attr.Info[0]) {
		return ed, nil
	}
	sc := scratchOf(cf.Pool)
	code := &sc.codes.Take(1)[0]
	if err := code.Decode(attr); err != nil {
		return nil, err
	}
	insts, pcIdx, err := bytecode.DecodeWithIndex(&sc.Arena, code.Bytecode, false)
	if err != nil {
		return nil, fmt.Errorf("rewrite: %s.%s: %w", cf.Name(), cf.MemberName(m), err)
	}
	// The list is the arena's newest allocation, so this reserves room where
	// it lies: the stages that splice into the method then rarely move it.
	insts = sc.GrowInsts(insts, len(insts)/4+16)
	ed := &sc.editors.Take(1)[0]
	*ed = MethodEditor{
		cf: cf, sc: sc, member: m, code: code,
		attr:      attr,
		info:      attr.Info, // classfile:allow-alias — compared, never read; Release drops the memo
		Insts:     insts,
		MaxLocals: int(code.MaxLocals),
		pcIdx:     pcIdx,
	}
	if len(code.Handlers) > 0 {
		ed.Handlers = sc.handlers.Take(len(code.Handlers))
	}
	for i, h := range code.Handlers {
		si, ok1 := pcIdx.At(int(h.StartPC))
		hi, ok3 := pcIdx.At(int(h.HandlerPC))
		ei, ok2 := len(insts), true
		if int(h.EndPC) != len(code.Bytecode) {
			ei, ok2 = pcIdx.At(int(h.EndPC))
		}
		if !ok1 || !ok2 || !ok3 {
			ed.Handlers = nil
			ed.handlerErr = fmt.Errorf("rewrite: %s.%s: exception table not on instruction boundaries", cf.Name(), cf.MemberName(m))
			break
		}
		ed.Handlers[i] = Handler{Start: si, End: ei, Target: hi, CatchType: h.CatchType}
	}
	m.SetDecoded(ed)
	return ed, nil
}

// EditMethod returns the method's decoded form for editing: DecodeMethod,
// refusing a body whose exception table cannot be carried through a
// splice.
func EditMethod(cf *classfile.ClassFile, m *classfile.Member) (*MethodEditor, error) {
	ed, err := DecodeMethod(cf, m)
	if err != nil || ed == nil {
		return nil, err
	}
	if ed.handlerErr != nil {
		return nil, ed.handlerErr
	}
	return ed, nil
}

// Pool returns the class constant pool for interning snippet operands.
func (ed *MethodEditor) Pool() *classfile.ConstPool { return ed.cf.Pool }

// Arena returns the storage of the method's class, for tables a stage
// needs while it edits: like Insts, what it hands out goes when the class
// is released.
func (ed *MethodEditor) Arena() *bytecode.Arena { return &ed.sc.Arena }

// Code returns the Code attribute header the form currently describes:
// max_stack, max_locals, the body bytes and the exception table in PCs.
func (ed *MethodEditor) Code() *classfile.Code { return ed.code }

// PCIndex maps byte offsets of Code().Bytecode to indices into Insts. It
// is valid between commits, not while a splice is pending.
func (ed *MethodEditor) PCIndex() bytecode.PCIndex {
	if ed.pcIdx == nil {
		ed.pcIdx = bytecode.IndexPCs(&ed.sc.Arena, ed.Insts, len(ed.code.Bytecode))
	}
	return ed.pcIdx
}

// InsertAt splices snippet before instruction position (0 = method
// entry; len(Insts) is not allowed — snippets always precede an existing
// instruction).
//
// captureBranches controls whether existing branches targeting pos are
// redirected to the snippet start (true — required for security checks
// that must dominate the protected instruction) or continue to target
// the original instruction (false — right for entry guards that must not
// re-run on loop back-edges).
//
// A snippet branch's only target is RelEnd: "the original instruction
// at pos".
func (ed *MethodEditor) InsertAt(pos int, snippet []bytecode.Inst, captureBranches bool) error {
	if pos < 0 || pos >= len(ed.Insts) {
		return fmt.Errorf("rewrite: insert position %d out of range (method has %d instructions)", pos, len(ed.Insts))
	}
	k := len(snippet)
	if k == 0 {
		return nil
	}
	// Check the snippet's relative targets before touching the method.
	resolveTarget := func(t int) (int, error) {
		switch {
		case t == RelEnd:
			return pos + k, nil // original instruction, post-shift
		case t >= 0:
			return 0, fmt.Errorf("rewrite: snippet branch target %d must be relative (use RelEnd)", t)
		}
		return 0, fmt.Errorf("rewrite: snippet branch without target")
	}
	for i := range snippet {
		in := &snippet[i]
		if in.Op.IsBranch() {
			if _, err := resolveTarget(in.Target); err != nil {
				return err
			}
		} else if in.Op.IsSwitch() {
			if in.Switch == nil {
				return fmt.Errorf("rewrite: snippet switch without payload")
			}
			if _, err := resolveTarget(in.Switch.Default); err != nil {
				return err
			}
			for _, tt := range in.Switch.Targets {
				if _, err := resolveTarget(tt); err != nil {
					return err
				}
			}
		}
	}
	ed.edited = true

	// Shift existing targets. The editor owns its switch payloads (Decode
	// made them, or an earlier splice copied them), so they move in place.
	shift := func(t int) int {
		switch {
		case t > pos:
			return t + k
		case t == pos:
			if captureBranches {
				return pos // snippet start
			}
			return pos + k
		}
		return t
	}
	for i := range ed.Insts {
		in := &ed.Insts[i]
		if in.Op.IsBranch() {
			in.Target = shift(in.Target)
		} else if in.Op.IsSwitch() {
			in.Switch.Default = shift(in.Switch.Default)
			for j, tt := range in.Switch.Targets {
				in.Switch.Targets[j] = shift(tt)
			}
		}
	}
	for i := range ed.Handlers {
		h := &ed.Handlers[i]
		// A protected region grows to cover code inserted inside it; the
		// snippet joins the region when inserted strictly within, and the
		// handler entry shifts like a branch target.
		if h.Start > pos {
			h.Start += k
		}
		if h.End > pos {
			h.End += k
		}
		if h.Target > pos || (h.Target == pos && !captureBranches) {
			h.Target += k
		}
	}

	// Open a gap of k at pos and copy the snippet in, resolving its
	// relative targets there; the caller's snippet stays reusable.
	n := len(ed.Insts)
	ed.Insts = ed.sc.GrowInsts(ed.Insts, k)[:n+k]
	copy(ed.Insts[pos+k:], ed.Insts[pos:n])
	copy(ed.Insts[pos:], snippet)
	for i := pos; i < pos+k; i++ {
		in := &ed.Insts[i]
		if in.Op.IsBranch() {
			in.Target, _ = resolveTarget(in.Target)
		} else if in.Op.IsSwitch() {
			sw := *in.Switch
			sw.Default, _ = resolveTarget(sw.Default)
			sw.Targets = append([]int(nil), sw.Targets...)
			for j, tt := range sw.Targets {
				sw.Targets[j], _ = resolveTarget(tt)
			}
			in.Switch = &sw
		}
	}
	return nil
}

// InsertEntry splices a snippet at method entry without capturing
// back-edges (entry guards run once per invocation).
func (ed *MethodEditor) InsertEntry(snippet []bytecode.Inst) error {
	return ed.InsertAt(0, snippet, false)
}

// InsertBeforeReturns splices the snippet before every return
// instruction (used by audit exit events). athrow exits are not covered;
// callers needing those wrap with a handler.
func (ed *MethodEditor) InsertBeforeReturns(snippet []bytecode.Inst) error {
	// Back to front: a splice shifts only the indices after it. Room for
	// every copy is taken at once, so the list moves at most once.
	returns := 0
	for i := range ed.Insts {
		if ed.Insts[i].Op.IsReturn() {
			returns++
		}
	}
	ed.Insts = ed.sc.GrowInsts(ed.Insts, returns*len(snippet))
	for i := len(ed.Insts) - 1; i >= 0; i-- {
		if ed.Insts[i].Op.IsReturn() {
			if err := ed.InsertAt(i, snippet, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// Commit re-encodes the edited body into the classfile, recomputing
// branch offsets, the exception table, and max_stack. Line-number tables
// are dropped (offsets no longer correspond); other code attributes are
// preserved verbatim.
func (ed *MethodEditor) Commit() error {
	handlerStarts := make([]int, len(ed.Handlers))
	for i, h := range ed.Handlers {
		handlerStarts[i] = h.Target
	}
	// Computed before write re-stamps the PCs its messages quote, reported
	// after an encoding error as it always was: a filter's failure text
	// ends up in the replacement class an attested fleet votes on.
	maxStack, stackErr := bytecode.MaxStack(&ed.sc.Arena, ed.Insts, ed.cf.Pool, handlerStarts)
	isLines := func(a *classfile.Attribute) bool { return ed.cf.AttrName(a) == classfile.AttrLineNumberTable }
	attrs := ed.code.Attributes
	if slices.ContainsFunc(attrs, isLines) {
		attrs = slices.DeleteFunc(slices.Clone(attrs), isLines)
	}
	return ed.write(uint16(maxStack), stackErr, attrs)
}

// CommitLayout re-encodes a body whose instructions were re-laid out
// without changing what they do to the stack or the locals (the
// compiler's superinstruction fusion): branch offsets and the exception
// table are recomputed, max_stack and every code attribute are kept.
func (ed *MethodEditor) CommitLayout() error {
	return ed.write(ed.code.MaxStack, nil, ed.code.Attributes)
}

// write assembles Insts and installs the new Code attribute. The
// in-memory form stays authoritative: afterwards Insts, Handlers and
// Code() describe exactly the bytes written, so the next stage edits on
// without decoding them.
func (ed *MethodEditor) write(maxStack uint16, stackErr error, attrs []*classfile.Attribute) error {
	code, err := bytecode.Assemble(&ed.sc.Arena, ed.Insts)
	if err == nil {
		err = stackErr
	}
	if err != nil {
		ed.member.SetDecoded(nil) // Insts no longer describe the member's bytes
		return fmt.Errorf("rewrite: %s.%s: %w", ed.cf.Name(), ed.cf.MemberName(ed.member), err)
	}
	newCode := &ed.sc.codes.Take(1)[0]
	*newCode = classfile.Code{
		MaxStack:   maxStack,
		MaxLocals:  uint16(ed.MaxLocals),
		Bytecode:   code,
		Attributes: attrs,
	}
	pcOf := func(i int) uint16 {
		if i >= len(ed.Insts) {
			return uint16(len(code))
		}
		return uint16(ed.Insts[i].PC)
	}
	if len(ed.Handlers) > 0 {
		newCode.Handlers = ed.sc.table.Take(len(ed.Handlers))
	}
	for i, h := range ed.Handlers {
		newCode.Handlers[i] = classfile.ExceptionHandler{
			StartPC: pcOf(h.Start), EndPC: pcOf(h.End), HandlerPC: pcOf(h.Target), CatchType: h.CatchType,
		}
	}
	payload, err := newCode.AppendEncode(ed.sc.Bytes(newCode.EncodedLen()))
	if err != nil {
		return err
	}
	ed.cf.SetCodeInfo(ed.member, payload)
	ed.code, ed.pcIdx, ed.edited = newCode, nil, false
	ed.attr = ed.cf.FindAttr(ed.member.Attributes, classfile.AttrCode)
	ed.info = ed.attr.Info // classfile:allow-alias — the payload just installed; compared, never read
	ed.member.SetDecoded(ed)
	return nil
}

// RelEnd is a snippet's branch target for the original instruction the
// snippet was inserted before (i.e. "skip the rest of the snippet").
// Snippets cannot know absolute instruction indices before insertion, so
// InsertAt resolves this sentinel.
const RelEnd = -1
