package irtext

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/oraql/go-oraql/internal/ir"
)

// funcParser resolves one function body in two passes: the first
// creates blocks and instruction shells (so forward references work),
// the second parses operands.
type funcParser struct {
	*parser
	fn       *ir.Func
	curLabel string
	curBlock *ir.Block

	// Backing arrays sized from the body's text. Each block's
	// instruction list is a window of slots, filled in place while the
	// block is open and capacity-limited once it closes, as
	// ir.Func.CloneInto lays out a clone; a block reopened by a
	// repeated label appends past its window by reallocating.
	instrs   []ir.Instr
	slots    []*ir.Instr
	blockArr []ir.Block
	open     *ir.Block
	consts   []ir.Const
	opArena  []ir.Value
	refArena []*ir.Block

	// cur is the instruction whose operands are being resolved, in text
	// order on the first pass (textOrder). It must wait for an operand
	// that is not resolved yet: one later in the text on the first
	// pass, or a deferred one (body).
	cur       *ir.Instr
	textOrder bool
	deferred  []bool // by instruction ID; nil while none is deferred
}

// errForward stops a non-phi instruction at an operand that is not
// resolved yet.
var errForward = errors.New("operand not resolved yet")

type rawInstr struct {
	in   *ir.Instr
	text string // instruction text after "name = ", metadata stripped
	meta string // metadata tail
	line int
}

// body parses fn's body lines (labels + instructions).
func (p *parser) body(fn *ir.Func, ext fnExtent) error {
	clear(p.values)
	clear(p.blocks)
	for _, a := range fn.Params {
		p.values[a.Name] = a
	}
	// The arrays are sized for the average function of the configured
	// programs: 1.5 operands, a quarter of a constant and a quarter of
	// a block reference per instruction.
	fp := &funcParser{parser: p, fn: fn,
		instrs:   make([]ir.Instr, ext.instrs),
		slots:    make([]*ir.Instr, ext.instrs),
		blockArr: make([]ir.Block, ext.labels),
		consts:   make([]ir.Const, 0, ext.instrs/4+4),
		opArena:  make([]ir.Value, 0, ext.instrs*3/2+4),
		refArena: make([]*ir.Block, 0, ext.instrs/4+4),
	}
	fn.Blocks = make([]*ir.Block, 0, ext.labels)
	p.raw = p.raw[:0]
	line := ext.line
	for off := ext.start; off < ext.end; line++ {
		raw := p.src[off:ext.end]
		if i := strings.IndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i]
		}
		off += len(raw) + 1
		l := strings.TrimSpace(raw)
		if l == "" || strings.HasPrefix(l, ";") {
			continue
		}
		if isLabel(l) {
			label := strings.TrimSuffix(l, ":")
			fp.startBlock(fp.getBlock(label))
			fp.curLabel = label
			continue
		}
		if err := fp.shell(l, line); err != nil {
			return err
		}
	}
	fp.startBlock(nil)
	// An instruction's result type follows from its operands', so an
	// operand must be resolved before its users. In text order it
	// usually is; but a block printed late can define a value that an
	// earlier-printed block it dominates uses. Such a user stops at
	// that operand (errForward), is reset and deferred, and the
	// deferred ones are retried until none is left. Phis spell out
	// their type and break the cycles of loops; a retry that makes no
	// progress (no SSA order exists) resolves the rest in text order.
	pending := p.raw
	for first := true; len(pending) > 0; first = false {
		later := pending[:0] // filtered in place
		for _, r := range pending {
			fp.cur, fp.textOrder = r.in, first
			err := fp.operands(r)
			if errors.Is(err, errForward) {
				in := r.in
				*in = ir.Instr{Op: in.Op, Ty: ir.Void, ID: in.ID, Parent: in.Parent, Name: in.Name}
				if fp.deferred == nil {
					fp.deferred = make([]bool, fn.NextInstrID())
				}
				fp.deferred[in.ID] = true
				later = append(later, r)
				continue
			}
			if err != nil {
				return fmt.Errorf("line %d: %q: %w", r.line+1, r.text, err)
			}
			if fp.deferred != nil {
				fp.deferred[r.in.ID] = false
			}
			// A void result cannot carry a name: the printer drops the
			// "%x = " prefix for void instructions, so a named one would
			// not survive a print/parse round trip.
			if r.in.Name != "" && r.in.Ty == ir.Void {
				return fmt.Errorf("line %d: %q: named result of void type", r.line+1, r.text)
			}
		}
		if !first && len(later) == len(pending) {
			fp.deferred = nil
		}
		pending = later
	}
	return nil
}

// header parses a define line and adds its function to m.
func (p *parser) header(m *ir.Module, head string) (*ir.Func, error) {
	// define TYPE @name(params) [attrs] {
	rest := strings.TrimPrefix(head, "define ")
	at := strings.Index(rest, " @")
	if at < 0 {
		return nil, fmt.Errorf("malformed define %q", head)
	}
	retTy, err := parseType(rest[:at])
	if err != nil {
		return nil, err
	}
	rest = rest[at+2:]
	open := strings.Index(rest, "(")
	closeP := strings.LastIndex(rest, ")")
	if open < 0 || closeP < open {
		return nil, fmt.Errorf("malformed parameter list in %q", head)
	}
	name := rest[:open]
	var params []*ir.Arg
	paramsText := rest[open+1 : closeP]
	if strings.TrimSpace(paramsText) != "" {
		pieces := strings.Split(paramsText, ",")
		args := make([]ir.Arg, len(pieces))
		params = make([]*ir.Arg, len(pieces))
		for i, ptxt := range pieces {
			fields := strings.Fields(strings.TrimSpace(ptxt))
			// TYPE [noalias] %name — vector types contain spaces.
			if len(fields) < 2 {
				return nil, fmt.Errorf("malformed parameter %q", ptxt)
			}
			pname := fields[len(fields)-1]
			if !strings.HasPrefix(pname, "%") {
				return nil, fmt.Errorf("parameter name missing in %q", ptxt)
			}
			noalias := false
			tyFields := fields[:len(fields)-1]
			if tyFields[len(tyFields)-1] == "noalias" {
				noalias = true
				tyFields = tyFields[:len(tyFields)-1]
			}
			ty, err := parseType(strings.Join(tyFields, " "))
			if err != nil {
				return nil, err
			}
			args[i] = ir.Arg{Name: strings.TrimPrefix(pname, "%"), Ty: ty, NoAlias: noalias}
			params[i] = &args[i]
		}
	}
	fn, _ := ir.NewFunc(m, name, retTy, params...)
	// NewFunc creates an entry block we will not use: labels drive
	// block creation, so drop it and rebuild from labels.
	fn.Blocks = fn.Blocks[:0]
	attrTail := strings.TrimSuffix(strings.TrimSpace(rest[closeP+1:]), "{")
	for _, a := range strings.Fields(attrTail) {
		switch a {
		case "kernel":
			fn.Attrs.Kernel = true
		case "outlined":
			fn.Attrs.Outlined = true
		case "readonly":
			fn.Attrs.ReadOnly = true
		case "readnone":
			fn.Attrs.ReadNone = true
		}
	}
	return fn, nil
}

// getBlock returns the block of a label, created on first sight.
func (fp *funcParser) getBlock(label string) *ir.Block {
	if b, ok := fp.blocks[label]; ok {
		return b
	}
	var b *ir.Block
	if len(fp.blockArr) > 0 {
		b, fp.blockArr = &fp.blockArr[0], fp.blockArr[1:]
	} else {
		b = new(ir.Block)
	}
	b.Name, b.ID, b.Parent = label, fp.fn.AllocBlockID(), fp.fn
	fp.blocks[label] = b
	fp.fn.Blocks = append(fp.fn.Blocks, b)
	return b
}

// startBlock closes the open block's window and opens b's, unless b
// already holds instructions; nil only closes.
func (fp *funcParser) startBlock(b *ir.Block) {
	if o := fp.open; o != nil {
		n := len(o.Instrs)
		o.Instrs = o.Instrs[:n:n]
		fp.slots = fp.slots[min(n, len(fp.slots)):]
		fp.open = nil
	}
	fp.curBlock = b
	if b != nil && cap(b.Instrs) == 0 {
		b.Instrs = fp.slots[:0]
		fp.open = b
	}
}

// shell creates the instruction object for a body line.
func (fp *funcParser) shell(line string, pos int) error {
	if fp.curLabel == "" {
		return fmt.Errorf("instruction before first label: %q", line)
	}
	text := line
	resName := ""
	if strings.HasPrefix(text, "%") {
		eq := strings.Index(text, " = ")
		if eq < 0 {
			return fmt.Errorf("malformed definition %q", line)
		}
		resName = text[:eq]
		text = text[eq+3:]
	}
	text, meta := splitMeta(text)
	if text == "" {
		return fmt.Errorf("missing opcode in %q", line)
	}
	opName := text
	if i := strings.IndexFunc(text, unicode.IsSpace); i >= 0 {
		opName = text[:i]
	}
	op, ok := opByName(opName)
	if !ok {
		return fmt.Errorf("unknown opcode in %q", line)
	}
	var in *ir.Instr
	if len(fp.instrs) > 0 {
		in, fp.instrs = &fp.instrs[0], fp.instrs[1:]
	} else {
		in = new(ir.Instr)
	}
	b := fp.curBlock
	in.Op, in.Ty, in.ID, in.Parent = op, ir.Void, fp.fn.AllocID(), b // the rest is zero
	if resName != "" {
		in.Name = resName[1:]
		fp.values[in.Name] = in
	}
	b.Instrs = append(b.Instrs, in)
	fp.raw = append(fp.raw, rawInstr{in: in, text: text, meta: meta, line: pos})
	return nil
}

// splitMeta removes the metadata tail (everything from the first " !").
func splitMeta(s string) (string, string) {
	if i := metaStart(s); i >= 0 {
		return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i:])
	}
	return strings.TrimSpace(s), ""
}

// metaStart is strings.Index(s, " !"), searching for the rare '!'
// rather than the frequent space.
func metaStart(s string) int {
	for i := 1; i < len(s); i++ {
		j := strings.IndexByte(s[i:], '!')
		if j < 0 {
			return -1
		}
		if i += j; s[i-1] == ' ' {
			return i - 1
		}
	}
	return -1
}

// opcodes lists the opcodes by the first byte of their mnemonic.
var opcodes = func() (t [256][]ir.Opcode) {
	for op := ir.OpAlloca; op <= ir.OpRet; op++ {
		name := op.String()
		t[name[0]] = append(t[name[0]], op)
	}
	return t
}()

func opByName(s string) (ir.Opcode, bool) {
	if s == "" {
		return ir.OpInvalid, false
	}
	for _, op := range opcodes[s[0]] {
		if op.String() == s {
			return op, true
		}
	}
	return ir.OpInvalid, false
}

func predByName(s string) (ir.Pred, bool) {
	for p := ir.PredEQ; p <= ir.PredGE; p++ {
		if p.String() == s {
			return p, true
		}
	}
	return 0, false
}

// value resolves an operand token with a type hint for constants.
func (fp *funcParser) value(tok string, hint *ir.Type) (ir.Value, error) {
	tok = strings.TrimSpace(tok)
	switch {
	case strings.HasPrefix(tok, "%"):
		v, ok := fp.values[tok[1:]]
		if !ok {
			return nil, fmt.Errorf("undefined value %s", tok)
		}
		if in, ok := v.(*ir.Instr); ok && fp.cur != nil && fp.cur.Op != ir.OpPhi &&
			(fp.textOrder && in.ID >= fp.cur.ID || fp.deferred != nil && fp.deferred[in.ID]) {
			return nil, errForward
		}
		return v, nil
	case strings.HasPrefix(tok, "@"):
		g := fp.globals[tok[1:]]
		if g == nil {
			return nil, fmt.Errorf("undefined global %s", tok)
		}
		return g, nil
	case strings.HasPrefix(tok, `"`):
		s, _, err := quoted(tok)
		if err != nil {
			return nil, err
		}
		return fp.constant(*ir.ConstStr(s)), nil
	default:
		// A float-looking token ("3.0", "1e9") is a float constant no
		// matter the positional hint: the printer renders every float
		// constant distinguishably, so the token itself is the type.
		if hint == ir.F64 || hint == ir.V4F64 || looksFloat(tok) {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("bad float constant %q", tok)
			}
			return fp.constant(*ir.ConstFloat(f)), nil
		}
		i, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad int constant %q", tok)
		}
		if hint == ir.I1 {
			return fp.constant(*ir.ConstBool(i != 0)), nil
		}
		return fp.constant(*ir.ConstInt(i)), nil
	}
}

// constant places c in the function's constant array. Every operand
// gets a constant of its own, as the ir constructors give it.
func (fp *funcParser) constant(c ir.Const) *ir.Const {
	if len(fp.consts) == cap(fp.consts) {
		fp.consts = make([]ir.Const, 0, max(cap(fp.consts)/2, 8))
	}
	fp.consts = append(fp.consts, c)
	return &fp.consts[len(fp.consts)-1]
}

// operandList places an instruction's operands in the function's
// operand array (window).
func (fp *funcParser) operandList(vs ...ir.Value) []ir.Value { return window(&fp.opArena, vs) }

// blockList places an instruction's block references (window).
func (fp *funcParser) blockList(bs ...*ir.Block) []*ir.Block { return window(&fp.refArena, bs) }

// window copies vs into the next capacity-limited window of arena, so
// appending to one list never writes into its neighbour's. A full
// arena continues in a new one of at least half its size.
func window[T any](arena *[]T, vs []T) []T {
	n := len(vs)
	if n == 0 {
		return nil
	}
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, cap(a)/2, 8))
	}
	start := len(a)
	a = append(a, vs...)
	*arena = a
	return a[start : start+n : start+n]
}

// nextArg returns the first piece of s up to a top-level comma (one
// outside quotes, brackets and parentheses), trimmed, and what follows
// the comma. ok is false when s holds no more pieces: a blank last
// piece is no piece.
func nextArg(s string) (arg, rest string, ok bool) {
	depth := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				return strings.TrimSpace(s[:i]), s[i+1:], true
			}
		}
	}
	if t := strings.TrimSpace(s); t != "" {
		return t, "", true
	}
	return "", "", false
}

// splitArgs splits s into its top-level comma-separated pieces
// (nextArg), storing the first len(out) of them in out; it returns how
// many there are.
func splitArgs(s string, out []string) int {
	n := 0
	for arg, rest, ok := nextArg(s); ok; arg, rest, ok = nextArg(rest) {
		if n < len(out) {
			out[n] = arg
		}
		n++
	}
	return n
}
