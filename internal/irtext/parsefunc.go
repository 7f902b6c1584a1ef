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
	m        *ir.Module
	fn       *ir.Func
	values   map[string]ir.Value  // %ident -> value
	blocks   map[string]*ir.Block // label -> block
	raw      []rawInstr
	curLabel string

	// cur is the instruction whose operands are being resolved, in text
	// order on the first pass (textOrder). It must wait for an operand
	// that is not resolved yet: one later in the text on the first
	// pass, or a deferred one (body).
	cur       *ir.Instr
	textOrder bool
	deferred  map[*ir.Instr]bool
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

// body parses the function's body lines (labels + instructions).
func (fp *funcParser) body(lines []string, baseLine int) error {
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			label := strings.TrimSuffix(line, ":")
			fp.getBlock(label)
			fp.curLabel = label
			continue
		}
		if err := fp.shell(line, baseLine+i); err != nil {
			return err
		}
	}
	// An instruction's result type follows from its operands', so an
	// operand must be resolved before its users. In text order it
	// usually is; but a block printed late can define a value that an
	// earlier-printed block it dominates uses. Such a user stops at
	// that operand (errForward), is reset and deferred, and the
	// deferred ones are retried until none is left. Phis spell out
	// their type and break the cycles of loops; a retry that makes no
	// progress (no SSA order exists) resolves the rest in text order.
	pending := fp.raw
	for first := true; len(pending) > 0; first = false {
		var later []rawInstr
		for _, r := range pending {
			fp.cur, fp.textOrder = r.in, first
			err := fp.operands(r)
			if errors.Is(err, errForward) {
				in := r.in
				*in = ir.Instr{Op: in.Op, Ty: ir.Void, ID: in.ID, Parent: in.Parent, Name: in.Name}
				if fp.deferred == nil {
					fp.deferred = map[*ir.Instr]bool{}
				}
				fp.deferred[in] = true
				later = append(later, r)
				continue
			}
			if err != nil {
				return fmt.Errorf("line %d: %q: %w", r.line+1, r.text, err)
			}
			delete(fp.deferred, r.in)
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
	fp.cur = nil
	return nil
}

func (fp *funcParser) header(head string) error {
	// define TYPE @name(params) [attrs] {
	rest := strings.TrimPrefix(head, "define ")
	at := strings.Index(rest, " @")
	if at < 0 {
		return fmt.Errorf("malformed define %q", head)
	}
	retTy, err := parseType(rest[:at])
	if err != nil {
		return err
	}
	rest = rest[at+2:]
	open := strings.Index(rest, "(")
	closeP := strings.LastIndex(rest, ")")
	if open < 0 || closeP < open {
		return fmt.Errorf("malformed parameter list in %q", head)
	}
	name := rest[:open]
	var params []*ir.Arg
	paramsText := rest[open+1 : closeP]
	if strings.TrimSpace(paramsText) != "" {
		for _, ptxt := range strings.Split(paramsText, ",") {
			fields := strings.Fields(strings.TrimSpace(ptxt))
			// TYPE [noalias] %name — vector types contain spaces.
			if len(fields) < 2 {
				return fmt.Errorf("malformed parameter %q", ptxt)
			}
			pname := fields[len(fields)-1]
			if !strings.HasPrefix(pname, "%") {
				return fmt.Errorf("parameter name missing in %q", ptxt)
			}
			noalias := false
			tyFields := fields[:len(fields)-1]
			if tyFields[len(tyFields)-1] == "noalias" {
				noalias = true
				tyFields = tyFields[:len(tyFields)-1]
			}
			ty, err := parseType(strings.Join(tyFields, " "))
			if err != nil {
				return err
			}
			params = append(params, &ir.Arg{Name: strings.TrimPrefix(pname, "%"), Ty: ty, NoAlias: noalias})
		}
	}
	fn, _ := ir.NewFunc(fp.m, name, retTy, params...)
	// NewFunc creates an entry block we will not use: labels drive
	// block creation, so drop it and rebuild from labels.
	fn.Blocks = fn.Blocks[:0]
	fp.fn = fn
	for _, p := range params {
		fp.values["%"+p.Name] = p
	}
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
	return nil
}

// curLabel tracks the block receiving new instructions.
func (fp *funcParser) getBlock(label string) *ir.Block {
	if b, ok := fp.blocks[label]; ok {
		return b
	}
	b := &ir.Block{Name: label, Parent: fp.fn}
	fp.blocks[label] = b
	fp.fn.Blocks = append(fp.fn.Blocks, b)
	return b
}

// shell creates the instruction object for a body line.
func (fp *funcParser) shell(line string, pos int) error {
	if fp.curLabel == "" {
		return fmt.Errorf("instruction before first label: %q", line)
	}
	b := fp.blocks[fp.curLabel]
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
	in := &ir.Instr{Op: op, Ty: ir.Void, ID: fp.fn.AllocID(), Parent: b}
	if resName != "" {
		in.Name = strings.TrimPrefix(resName, "%")
		fp.values[resName] = in
	}
	b.Instrs = append(b.Instrs, in)
	fp.raw = append(fp.raw, rawInstr{in: in, text: text, meta: meta, line: pos})
	return nil
}

// splitMeta removes the metadata tail (everything from the first " !").
func splitMeta(s string) (string, string) {
	if i := strings.Index(s, " !"); i >= 0 {
		return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i:])
	}
	return strings.TrimSpace(s), ""
}

var opcodeNames = map[string]ir.Opcode{
	"alloca": ir.OpAlloca, "load": ir.OpLoad, "store": ir.OpStore, "gep": ir.OpGEP,
	"memcpy": ir.OpMemCpy, "memset": ir.OpMemSet,
	"add": ir.OpAdd, "sub": ir.OpSub, "mul": ir.OpMul, "sdiv": ir.OpSDiv, "srem": ir.OpSRem,
	"and": ir.OpAnd, "or": ir.OpOr, "xor": ir.OpXor, "shl": ir.OpShl, "ashr": ir.OpAShr,
	"fadd": ir.OpFAdd, "fsub": ir.OpFSub, "fmul": ir.OpFMul, "fdiv": ir.OpFDiv,
	"sitofp": ir.OpSIToFP, "fptosi": ir.OpFPToSI,
	"icmp": ir.OpICmp, "fcmp": ir.OpFCmp,
	"vsplat": ir.OpVSplat, "vextract": ir.OpVExtract, "vinsert": ir.OpVInsert, "vreduce": ir.OpVReduce,
	"select": ir.OpSelect, "phi": ir.OpPhi, "call": ir.OpCall,
	"br": ir.OpBr, "ret": ir.OpRet,
}

func opByName(s string) (ir.Opcode, bool) {
	op, ok := opcodeNames[s]
	return op, ok
}

var predByName = map[string]ir.Pred{
	"eq": ir.PredEQ, "ne": ir.PredNE, "lt": ir.PredLT,
	"le": ir.PredLE, "gt": ir.PredGT, "ge": ir.PredGE,
}

// value resolves an operand token with a type hint for constants.
func (fp *funcParser) value(tok string, hint *ir.Type) (ir.Value, error) {
	tok = strings.TrimSpace(tok)
	switch {
	case strings.HasPrefix(tok, "%"):
		v, ok := fp.values[tok]
		if !ok {
			return nil, fmt.Errorf("undefined value %s", tok)
		}
		if in, ok := v.(*ir.Instr); ok && fp.cur != nil && fp.cur.Op != ir.OpPhi &&
			(fp.textOrder && in.ID >= fp.cur.ID || fp.deferred[in]) {
			return nil, errForward
		}
		return v, nil
	case strings.HasPrefix(tok, "@"):
		g := fp.m.GlobalByName(tok[1:])
		if g == nil {
			return nil, fmt.Errorf("undefined global %s", tok)
		}
		return g, nil
	case strings.HasPrefix(tok, `"`):
		s, _, err := quoted(tok)
		if err != nil {
			return nil, err
		}
		return ir.ConstStr(s), nil
	default:
		// A float-looking token ("3.0", "1e9") is a float constant no
		// matter the positional hint: the printer renders every float
		// constant distinguishably, so the token itself is the type.
		if hint == ir.F64 || hint == ir.V4F64 || looksFloat(tok) {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("bad float constant %q", tok)
			}
			return ir.ConstFloat(f), nil
		}
		i, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad int constant %q", tok)
		}
		if hint == ir.I1 {
			return ir.ConstBool(i != 0), nil
		}
		return ir.ConstInt(i), nil
	}
}

// splitArgs splits on top-level commas (respecting quotes).
func splitArgs(s string) []string {
	out := make([]string, 0, 4)
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '[' || c == '(':
			depth++
		case c == ']' || c == ')':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}
