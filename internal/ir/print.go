package ir

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// String renders the module in an LLVM-like textual form. The output is
// deterministic, parseable by package irtext (print→parse round-trips),
// and used by tests and the -print-ir flag of oraql-opt. It is Header
// followed by each function's String.
func (m *Module) String() string {
	p := getPrinter()
	defer p.release()
	size := headerSize(m)
	for _, f := range m.Funcs {
		size += funcSize(f)
	}
	p.sb.Grow(size)
	p.header(m)
	for _, f := range m.Funcs {
		p.function(f)
	}
	return p.take()
}

// Header renders what String prints before the functions: the module
// line, the TBAA tags and the globals.
func (m *Module) Header() string {
	p := getPrinter()
	defer p.release()
	p.sb.Grow(headerSize(m))
	p.header(m)
	return p.take()
}

// String renders the function body with uniquified local names, so the
// output parses back unambiguously.
func (f *Func) String() string {
	p := getPrinter()
	defer p.release()
	p.sb.Grow(funcSize(f))
	p.function(f)
	return p.take()
}

// String renders one instruction without function context (names may
// collide across instructions; use Func.String for parseable output).
func (in *Instr) String() string {
	p := getPrinter()
	defer p.release()
	p.sb.Grow(instrSize)
	p.instr(in)
	return p.take()
}

// Sizes a text is likely to need, from the configured programs, so that
// a rendering's string is one allocation: an instruction line averages
// 57 bytes.
const instrSize = 64

func headerSize(m *Module) int {
	n := 64 + 48*len(m.TBAA.Tags())
	for _, g := range m.Globals {
		n += 48 + 12*len(g.InitI64) + 24*len(g.InitF64)
	}
	return n
}

func funcSize(f *Func) int {
	n := 64 + 32*len(f.Params)
	for _, b := range f.Blocks {
		n += len(b.Name) + 2 + instrSize*len(b.Instrs)
	}
	return n
}

// printer renders IR text into a strings.Builder, through scratch for
// what strconv formats. Printers are pooled for their name tables.
type printer struct {
	sb      strings.Builder
	scratch []byte

	// While a function prints, names counts the uses of each base
	// name so far and dups holds the values that print with a ".N"
	// suffix; every other local prints as its Ident. named is false
	// outside a function (Instr.String, Header).
	named bool
	names map[nameKey]int32
	dups  map[Value]int32
}

var printers = sync.Pool{New: func() any { return new(printer) }}

func getPrinter() *printer { return printers.Get().(*printer) }

// take returns the text rendered so far and hands its buffer to the
// string.
func (p *printer) take() string {
	s := p.sb.String()
	p.sb.Reset()
	return s
}

// release returns p to the pool, holding no IR (also after a panic
// mid-rendering), unless its tables grew unusually large.
func (p *printer) release() {
	if len(p.names) > 1<<12 {
		return
	}
	p.sb.Reset()
	p.named = false
	clear(p.names)
	clear(p.dups)
	printers.Put(p)
}

func (p *printer) str(s string) { p.sb.WriteString(s) }

func (p *printer) byte(c byte) { p.sb.WriteByte(c) }

func (p *printer) int(v int64) {
	p.scratch = strconv.AppendInt(p.scratch[:0], v, 10)
	p.sb.Write(p.scratch)
}

func (p *printer) quote(s string) {
	p.scratch = strconv.AppendQuote(p.scratch[:0], s)
	p.sb.Write(p.scratch)
}

func (p *printer) header(m *Module) {
	p.str("; module ")
	p.str(m.Name)
	p.str(" target=")
	p.str(m.Target)
	p.byte('\n')
	for _, tag := range m.TBAA.Tags() {
		p.str("!tbaa.tag ")
		p.quote(tag)
		p.str(" parent ")
		p.quote(m.TBAA.parent[tag])
		p.byte('\n')
	}
	for _, g := range m.Globals {
		p.byte('@')
		p.str(g.Name)
		p.str(" = global [")
		p.int(g.Size)
		p.str(" bytes]")
		if g.Const {
			p.str(" const")
		}
		if g.Internal {
			p.str(" internal")
		}
		if len(g.InitI64) > 0 {
			p.str(" init.i64 {")
			for i, v := range g.InitI64 {
				if i > 0 {
					p.str(", ")
				}
				p.int(v)
			}
			p.byte('}')
		}
		if len(g.InitF64) > 0 {
			p.str(" init.f64 {")
			for i, v := range g.InitF64 {
				if i > 0 {
					p.str(", ")
				}
				p.scratch = appendF64(p.scratch[:0], v)
				p.sb.Write(p.scratch)
			}
			p.byte('}')
		}
		p.byte('\n')
	}
}

func (p *printer) function(f *Func) {
	p.nameLocals(f)
	p.str("\ndefine ")
	p.typ(f.RetTy)
	p.str(" @")
	p.str(f.Name)
	p.byte('(')
	for i, a := range f.Params {
		if i > 0 {
			p.str(", ")
		}
		p.typ(a.Ty)
		if a.NoAlias {
			p.str(" noalias")
		}
		p.byte(' ')
		p.ident(a)
	}
	p.byte(')')
	if f.Attrs.Kernel {
		p.str(" kernel")
	}
	if f.Attrs.Outlined {
		p.str(" outlined")
	}
	if f.Attrs.ReadOnly {
		p.str(" readonly")
	}
	if f.Attrs.ReadNone {
		p.str(" readnone")
	}
	p.str(" {\n")
	for _, b := range f.Blocks {
		p.str(b.Name)
		p.str(":\n")
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			p.str("  ")
			p.instr(in)
			p.byte('\n')
		}
	}
	p.str("}\n")
	p.named = false
}

// nameKey is a base name. The base "t<N>" of an unnamed instruction
// is kept as its number, so no string is formatted for it; a name
// spelled "t<N>" gets the same key.
type nameKey struct {
	name string
	num  int // N of a base "t<N>", else -1
}

func keyOf(name string) nameKey {
	// Only the spelling strconv would give N maps to N: digits, no
	// sign, no leading zero.
	if len(name) >= 2 && name[0] == 't' && (name[1] != '0' || len(name) == 2) {
		digits := true
		for i := 1; i < len(name); i++ {
			digits = digits && '0' <= name[i] && name[i] <= '9'
		}
		if n, err := strconv.Atoi(name[1:]); digits && err == nil {
			return nameKey{num: n}
		}
	}
	return nameKey{name: name, num: -1}
}

// nameLocals assigns each param and live value-producing instruction
// of f its printed ident: "%" and its base name (the instruction's
// name, or t<ID> without one), with a ".N" suffix on the Nth repeat
// of a base.
func (p *printer) nameLocals(f *Func) {
	if p.names == nil {
		p.names = map[nameKey]int32{}
		p.dups = map[Value]int32{}
	}
	clear(p.names)
	clear(p.dups)
	p.named = true
	for _, a := range f.Params {
		p.assign(a, keyOf(a.Name))
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.dead || in.Ty == Void {
				continue
			}
			switch {
			case in.Name != "":
				p.assign(in, keyOf(in.Name))
			case in.ID >= 0:
				p.assign(in, nameKey{num: in.ID})
			default:
				p.assign(in, keyOf("t"+strconv.Itoa(in.ID)))
			}
		}
	}
}

func (p *printer) assign(v Value, k nameKey) {
	n := p.names[k]
	p.names[k] = n + 1
	if n > 0 {
		p.dups[v] = n
	}
}

// ident appends the printed identifier of an operand.
func (p *printer) ident(v Value) {
	switch x := v.(type) {
	case *Instr:
		p.byte('%')
		if x.Name != "" {
			p.str(x.Name)
		} else {
			p.byte('t')
			p.int(int64(x.ID))
		}
	case *Arg:
		p.byte('%')
		p.str(x.Name)
	case *Const:
		p.scratch = x.appendIdent(p.scratch[:0])
		p.sb.Write(p.scratch)
		return
	case *Global:
		p.byte('@')
		p.str(x.Name)
		return
	default:
		p.str(v.Ident())
		return
	}
	if p.named {
		if n := p.dups[v]; n > 0 {
			p.byte('.')
			p.int(int64(n))
		}
	}
}

func (p *printer) typ(t *Type) {
	switch {
	case t == nil:
		p.str("<nil>") // as fmt prints a nil *Type
	case t.Kind == KVec && t.Elem != nil:
		p.byte('<')
		p.int(int64(t.Lanes))
		p.str(" x ")
		p.typ(t.Elem)
		p.byte('>')
	default:
		p.str(t.String())
	}
}

func (p *printer) block(b *Block) {
	p.byte('%')
	p.str(b.Name)
}

// instr appends one instruction, resolving local idents through the
// function's names while one prints.
func (p *printer) instr(in *Instr) {
	if in.Ty != Void {
		p.ident(in)
		p.str(" = ")
	}
	op := in.Operands
	switch in.Op {
	case OpAlloca:
		p.str("alloca ")
		p.int(in.Size)
	case OpLoad:
		p.str("load ")
		p.typ(in.Ty)
		p.str(", ")
		p.ident(op[0])
	case OpStore:
		p.str("store ")
		p.typ(op[0].Type())
		p.byte(' ')
		p.ident(op[0])
		p.str(", ")
		p.ident(op[1])
	case OpGEP:
		p.str("gep ")
		p.ident(op[0])
		p.str(" + ")
		if len(op) > 1 {
			p.ident(op[1])
			p.byte('*')
			p.int(in.Scale)
			p.str(" + ")
		}
		p.int(in.Off)
	case OpMemCpy:
		p.str("memcpy ")
		p.ident(op[0])
		p.str(" <- ")
		p.ident(op[1])
		p.str(", ")
		p.ident(op[2])
	case OpMemSet:
		p.str("memset ")
		p.ident(op[0])
		p.str(", ")
		p.ident(op[1])
		p.str(", ")
		p.ident(op[2])
	case OpICmp, OpFCmp:
		p.str(in.Op.String())
		p.byte(' ')
		if in.Pred >= 0 && int(in.Pred) < len(predNames) {
			p.str(predNames[in.Pred])
		} else {
			p.str(fmt.Sprintf("%s", in.Pred)) // what fmt makes of the String panic
		}
		p.byte(' ')
		p.ident(op[0])
		p.str(", ")
		p.ident(op[1])
	case OpPhi:
		p.str("phi ")
		p.typ(in.Ty)
		p.byte(' ')
		for i, v := range op {
			if i > 0 {
				p.str(", ")
			}
			p.byte('[')
			p.ident(v)
			p.str(", ")
			p.block(in.Incoming[i])
			p.byte(']')
		}
	case OpCall:
		p.str("call ")
		p.typ(in.Ty)
		p.str(" @")
		p.str(in.Callee)
		p.byte('(')
		p.list(op)
		p.byte(')')
	case OpBr:
		p.str("br ")
		if len(in.Succs) == 2 {
			p.ident(op[0])
			p.str(", ")
			p.block(in.Succs[0])
			p.str(", ")
			p.block(in.Succs[1])
		} else {
			p.block(in.Succs[0])
		}
	case OpRet:
		if len(op) > 0 {
			p.str("ret ")
			p.ident(op[0])
		} else {
			p.str("ret void")
		}
	default:
		p.str(in.Op.String())
		p.byte(' ')
		p.list(op)
	}
	if in.TBAA != "" {
		p.str(" !tbaa ")
		p.quote(in.TBAA)
	}
	if len(in.Scopes) > 0 {
		p.str(" !alias.scope ")
		p.words(in.Scopes)
	}
	if len(in.NoAliasScope) > 0 {
		p.str(" !noalias ")
		p.words(in.NoAliasScope)
	}
	if in.Loc.IsValid() {
		p.str(" !dbg ")
		p.str(in.Loc.File)
		p.byte(':')
		p.int(int64(in.Loc.Line))
		p.byte(':')
		p.int(int64(in.Loc.Col))
	}
}

// list appends operands separated by ", ".
func (p *printer) list(vs []Value) {
	for i, v := range vs {
		if i > 0 {
			p.str(", ")
		}
		p.ident(v)
	}
}

// words appends a string list the way fmt's %v does: "[a b c]".
func (p *printer) words(ws []string) {
	p.byte('[')
	for i, w := range ws {
		if i > 0 {
			p.byte(' ')
		}
		p.str(w)
	}
	p.byte(']')
}
