package irtext

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/oraql/go-oraql/internal/ir"
)

// operands fills in one instruction from its stripped text (pass 2).
// The caller resolves every referenced non-phi value first (body), and
// phis carry explicit types, so type inference for constants always
// has a resolved operand or an explicit type to lean on. Operands are
// gathered in the parser's scratch list and placed once the whole
// instruction resolved.
func (fp *funcParser) operands(r rawInstr) error {
	in := r.in
	text := r.text
	rest := strings.TrimSpace(strings.TrimPrefix(text, in.Op.String()))
	var args [3]string
	var err error
	switch in.Op {
	case ir.OpAlloca:
		in.Ty = ir.Ptr
		in.Size, err = strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return fmt.Errorf("alloca size: %w", err)
		}

	case ir.OpLoad:
		// load TYPE, PTR
		if splitArgs(rest, args[:]) != 2 {
			return fmt.Errorf("load wants 'TYPE, PTR'")
		}
		in.Ty, err = parseType(args[0])
		if err != nil {
			return err
		}
		ptr, err := fp.value(args[1], ir.Ptr)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(ptr)

	case ir.OpStore:
		// store TYPE VAL, PTR
		if splitArgs(rest, args[:]) != 2 {
			return fmt.Errorf("store wants 'TYPE VAL, PTR'")
		}
		sp := strings.LastIndex(args[0], " ")
		if sp < 0 {
			return fmt.Errorf("store value missing type")
		}
		vty, err := parseType(args[0][:sp])
		if err != nil {
			return err
		}
		val, err := fp.value(args[0][sp+1:], vty)
		if err != nil {
			return err
		}
		ptr, err := fp.value(args[1], ir.Ptr)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(val, ptr)

	case ir.OpGEP:
		// gep BASE + IDX*SCALE + OFF   |   gep BASE + OFF
		in.Ty = ir.Ptr
		parts := strings.Count(rest, " + ") + 1
		baseText, tail, _ := strings.Cut(rest, " + ")
		base, err := fp.value(baseText, ir.Ptr)
		if err != nil {
			return err
		}
		switch parts {
		case 2:
			in.Off, err = strconv.ParseInt(strings.TrimSpace(tail), 10, 64)
			if err != nil {
				return fmt.Errorf("gep offset: %w", err)
			}
			in.Operands = fp.operandList(base)
		case 3:
			idxText, offText, _ := strings.Cut(tail, " + ")
			star := strings.LastIndex(idxText, "*")
			if star < 0 {
				return fmt.Errorf("gep index missing scale")
			}
			idx, err := fp.value(idxText[:star], ir.I64)
			if err != nil {
				return err
			}
			in.Scale, err = strconv.ParseInt(strings.TrimSpace(idxText[star+1:]), 10, 64)
			if err != nil {
				return fmt.Errorf("gep scale: %w", err)
			}
			in.Off, err = strconv.ParseInt(strings.TrimSpace(offText), 10, 64)
			if err != nil {
				return fmt.Errorf("gep offset: %w", err)
			}
			in.Operands = fp.operandList(base, idx)
		default:
			return fmt.Errorf("malformed gep")
		}

	case ir.OpMemCpy:
		// memcpy DST <- SRC, N
		arrow := strings.Index(rest, " <- ")
		if arrow < 0 {
			return fmt.Errorf("malformed memcpy")
		}
		dst, err := fp.value(rest[:arrow], ir.Ptr)
		if err != nil {
			return err
		}
		if splitArgs(rest[arrow+4:], args[:]) != 2 {
			return fmt.Errorf("memcpy wants 'SRC, N'")
		}
		src, err := fp.value(args[0], ir.Ptr)
		if err != nil {
			return err
		}
		n, err := fp.value(args[1], ir.I64)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(dst, src, n)

	case ir.OpMemSet:
		// memset DST, VAL, N
		if splitArgs(rest, args[:]) != 3 {
			return fmt.Errorf("memset wants 'DST, VAL, N'")
		}
		ops := fp.ops[:0]
		for i, hint := range [3]*ir.Type{ir.Ptr, ir.I64, ir.I64} {
			v, err := fp.value(args[i], hint)
			if err != nil {
				return err
			}
			ops = append(ops, v)
		}
		fp.ops = ops
		in.Operands = fp.operandList(ops...)
		in.Ty = ir.Void

	case ir.OpICmp, ir.OpFCmp:
		// icmp PRED a, b
		predText, operands, ok := strings.Cut(rest, " ")
		if !ok {
			return fmt.Errorf("cmp wants 'PRED a, b'")
		}
		pred, ok := predByName(predText)
		if !ok {
			return fmt.Errorf("unknown predicate %q", predText)
		}
		in.Pred = pred
		hint := ir.I64
		if in.Op == ir.OpFCmp {
			hint = ir.F64
		}
		if splitArgs(operands, args[:]) != 2 {
			return fmt.Errorf("cmp wants two operands")
		}
		ops, err := fp.resolveBin(fp.ops[:0], args[:2], hint)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(ops...)
		in.Ty = ir.I1

	case ir.OpPhi:
		// phi TYPE [v, %bb], [v, %bb]...
		sp := strings.Index(rest, " ")
		if sp < 0 {
			return fmt.Errorf("phi missing type")
		}
		tyEnd := sp
		if strings.HasPrefix(rest, "<") { // vector type contains a space
			tyEnd = strings.Index(rest, ">") + 1
		}
		in.Ty, err = parseType(rest[:tyEnd])
		if err != nil {
			return err
		}
		ops, refs := fp.ops[:0], fp.refs[:0]
		for inc, more, ok := nextArg(rest[tyEnd:]); ok; inc, more, ok = nextArg(more) {
			if !strings.HasPrefix(inc, "[") || !strings.HasSuffix(inc, "]") {
				return fmt.Errorf("malformed phi incoming %q", inc)
			}
			if splitArgs(inc[1:len(inc)-1], args[:]) != 2 || !strings.HasPrefix(args[1], "%") {
				return fmt.Errorf("malformed phi incoming %q", inc)
			}
			v, err := fp.value(args[0], in.Ty)
			if err != nil {
				return err
			}
			blk, ok := fp.blocks[args[1][1:]]
			if !ok {
				return fmt.Errorf("phi references unknown block %q", args[1])
			}
			ops, refs = append(ops, v), append(refs, blk)
		}
		fp.ops, fp.refs = ops, refs
		in.Operands = fp.operandList(ops...)
		in.Incoming = fp.blockList(refs...)

	case ir.OpCall:
		// call TYPE @name(args)
		at := strings.Index(rest, "@")
		open := strings.Index(rest, "(")
		if at < 0 || open < at || !strings.HasSuffix(rest, ")") {
			return fmt.Errorf("malformed call")
		}
		in.Ty, err = parseType(strings.TrimSpace(rest[:at]))
		if err != nil {
			return err
		}
		in.Callee = rest[at+1 : open]
		callee := fp.funcs[in.Callee]
		intrTypes := intrinsicParamTypes[in.Callee]
		ops := fp.ops[:0]
		for a, more, ok := nextArg(rest[open+1 : len(rest)-1]); ok; a, more, ok = nextArg(more) {
			i := len(ops)
			hint := ir.I64
			if callee != nil && i < len(callee.Params) {
				hint = callee.Params[i].Ty
			} else if i < len(intrTypes) {
				hint = intrTypes[i]
			} else if looksFloat(a) {
				hint = ir.F64
			}
			v, err := fp.value(a, hint)
			if err != nil {
				return err
			}
			ops = append(ops, v)
		}
		fp.ops = ops
		in.Operands = fp.operandList(ops...)

	case ir.OpBr:
		switch splitArgs(rest, args[:]) {
		case 1:
			blk, ok := fp.blocks[strings.TrimPrefix(args[0], "%")]
			if !ok {
				return fmt.Errorf("br to unknown block %q", args[0])
			}
			in.Succs = fp.blockList(blk)
		case 3:
			cond, err := fp.value(args[0], ir.I1)
			if err != nil {
				return err
			}
			t, ok1 := fp.blocks[strings.TrimPrefix(args[1], "%")]
			e, ok2 := fp.blocks[strings.TrimPrefix(args[2], "%")]
			if !ok1 || !ok2 {
				return fmt.Errorf("br to unknown block")
			}
			in.Operands = fp.operandList(cond)
			in.Succs = fp.blockList(t, e)
		default:
			return fmt.Errorf("malformed br")
		}

	case ir.OpRet:
		if rest != "void" && rest != "" {
			v, err := fp.value(rest, fp.fn.RetTy)
			if err != nil {
				return err
			}
			in.Operands = fp.operandList(v)
		}

	case ir.OpSIToFP:
		v, err := fp.value(rest, ir.I64)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(v)
		in.Ty = ir.F64
		if v.Type().Kind == ir.KVec {
			in.Ty = ir.V4F64
		}

	case ir.OpFPToSI:
		v, err := fp.value(rest, ir.F64)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(v)
		in.Ty = ir.I64
		if v.Type().Kind == ir.KVec {
			in.Ty = ir.V4I64
		}

	case ir.OpSelect:
		if splitArgs(rest, args[:]) != 3 {
			return fmt.Errorf("select wants three operands")
		}
		cond, err := fp.value(args[0], ir.I1)
		if err != nil {
			return err
		}
		ops, err := fp.resolveBin(append(fp.ops[:0], cond), args[1:], ir.I64)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(ops...)
		in.Ty = in.Operands[1].Type()

	case ir.OpVSplat:
		// Constant splats carry their element type in the token itself
		// ("vsplat 3" is an i64 splat, "vsplat 3.0" a double one); %refs
		// resolve by lookup, so the hint only decides bare constants.
		hint := ir.F64
		if t := strings.TrimSpace(rest); !strings.HasPrefix(t, "%") && !looksFloat(t) {
			hint = ir.I64
		}
		v, err := fp.value(rest, hint)
		if err != nil {
			return err
		}
		elem := scalarOf(v.Type())
		if elem != ir.I64 && elem != ir.F64 {
			return fmt.Errorf("vsplat of %s", v.Type())
		}
		in.Operands = fp.operandList(v)
		in.Ty = ir.VecType(elem, 4)

	case ir.OpVExtract:
		if splitArgs(rest, args[:]) != 2 {
			return fmt.Errorf("vextract wants 'VEC, LANE'")
		}
		vec, err := fp.value(args[0], ir.V4F64)
		if err != nil {
			return err
		}
		if vec.Type().Kind != ir.KVec {
			return fmt.Errorf("vextract of %s", vec.Type())
		}
		lane, err := fp.value(args[1], ir.I64)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(vec, lane)
		in.Ty = vec.Type().Elem

	case ir.OpVInsert:
		if splitArgs(rest, args[:]) != 3 {
			return fmt.Errorf("vinsert wants 'VEC, VAL, LANE'")
		}
		vec, err := fp.value(args[0], ir.V4F64)
		if err != nil {
			return err
		}
		if vec.Type().Kind != ir.KVec {
			return fmt.Errorf("vinsert into %s", vec.Type())
		}
		val, err := fp.value(args[1], vec.Type().Elem)
		if err != nil {
			return err
		}
		lane, err := fp.value(args[2], ir.I64)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(vec, val, lane)
		in.Ty = vec.Type()

	case ir.OpVReduce:
		v, err := fp.value(rest, ir.V4F64)
		if err != nil {
			return err
		}
		if v.Type().Kind != ir.KVec {
			return fmt.Errorf("vreduce of %s", v.Type())
		}
		in.Operands = fp.operandList(v)
		in.Ty = v.Type().Elem

	default: // binary arithmetic
		hint := ir.I64
		switch in.Op {
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
			hint = ir.F64
		}
		if splitArgs(rest, args[:]) != 2 {
			return fmt.Errorf("binary op wants two operands")
		}
		ops, err := fp.resolveBin(fp.ops[:0], args[:2], hint)
		if err != nil {
			return err
		}
		in.Operands = fp.operandList(ops...)
		in.Ty = in.Operands[0].Type()
		if in.Ty == ir.Void || in.Ty == ir.Ptr {
			// Pointer-typed operand in arithmetic cannot happen; Void
			// means both were constants — fall back to the hint.
			in.Ty = hint
		}
		// Constants next to a typed operand adopt its type family.
		if in.Operands[0].Type().Kind == ir.KVec || in.Operands[1].Type().Kind == ir.KVec {
			in.Ty = in.Operands[0].Type()
		}
	}
	return fp.metadata(in, r.meta)
}

// resolveBin resolves two operand tokens onto ops, preferring a
// referenced value's type as the constant hint.
func (fp *funcParser) resolveBin(ops []ir.Value, args []string, hint *ir.Type) ([]ir.Value, error) {
	ty := hint
	for _, a := range args {
		a = strings.TrimSpace(a)
		if strings.HasPrefix(a, "%") || strings.HasPrefix(a, "@") {
			v, err := fp.value(a, hint)
			if err != nil {
				return ops, err
			}
			if v.Type() != ir.Void {
				ty = v.Type()
				break
			}
		}
	}
	for _, a := range args {
		v, err := fp.value(a, ty)
		if err != nil {
			return ops, err
		}
		ops = append(ops, v)
	}
	fp.ops = ops
	return ops, nil
}

// intrinsicParamTypes gives constant-type hints for the float-bearing
// intrinsics (other positions default to i64; quoted strings and %refs
// are unaffected).
var intrinsicParamTypes = map[string][]*ir.Type{
	"__print_f64":         {ir.F64},
	"__sqrt":              {ir.F64},
	"__fabs":              {ir.F64},
	"__exp":               {ir.F64},
	"__log":               {ir.F64},
	"__sin":               {ir.F64},
	"__cos":               {ir.F64},
	"__pow":               {ir.F64, ir.F64},
	"__min_f64":           {ir.F64, ir.F64},
	"__max_f64":           {ir.F64, ir.F64},
	"__mpi_allreduce_f64": {ir.F64},
}

// looksFloat sniffs a numeric token for a decimal point or exponent.
func looksFloat(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" || strings.HasPrefix(s, "%") || strings.HasPrefix(s, "@") || strings.HasPrefix(s, `"`) {
		return false
	}
	return strings.ContainsAny(s, ".eE")
}

func scalarOf(t *ir.Type) *ir.Type {
	if t.Kind == ir.KVec {
		return t.Elem
	}
	return t
}

// metadata parses the instruction's metadata tail.
func (fp *funcParser) metadata(in *ir.Instr, meta string) error {
	s := strings.TrimSpace(meta)
	for s != "" {
		switch {
		case strings.HasPrefix(s, "!tbaa "):
			tag, rest, err := quoted(strings.TrimPrefix(s, "!tbaa "))
			if err != nil {
				return err
			}
			in.TBAA = tag
			s = strings.TrimSpace(rest)
		case strings.HasPrefix(s, "!alias.scope ["):
			list, rest, err := bracketList(strings.TrimPrefix(s, "!alias.scope "))
			if err != nil {
				return err
			}
			in.Scopes = list
			s = rest
		case strings.HasPrefix(s, "!noalias ["):
			list, rest, err := bracketList(strings.TrimPrefix(s, "!noalias "))
			if err != nil {
				return err
			}
			in.NoAliasScope = list
			s = rest
		case strings.HasPrefix(s, "!dbg "):
			loc := strings.TrimPrefix(s, "!dbg ")
			end := metaStart(loc)
			rest := ""
			if end >= 0 {
				rest = loc[end:]
				loc = loc[:end]
			}
			// file:line:col, where the file may hold colons itself.
			c2 := strings.LastIndexByte(loc, ':')
			c1 := -1
			if c2 >= 0 {
				c1 = strings.LastIndexByte(loc[:c2], ':')
			}
			if c1 < 0 {
				return fmt.Errorf("malformed !dbg %q", loc)
			}
			line, err1 := strconv.Atoi(loc[c1+1 : c2])
			col, err2 := strconv.Atoi(loc[c2+1:])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("malformed !dbg %q", loc)
			}
			in.Loc = ir.SrcLoc{File: loc[:c1], Line: line, Col: col}
			s = strings.TrimSpace(rest)
		default:
			return fmt.Errorf("unknown metadata %q", s)
		}
	}
	return nil
}

// bracketList parses "[a b c]" into its space-separated elements.
func bracketList(s string) ([]string, string, error) {
	if !strings.HasPrefix(s, "[") {
		return nil, s, fmt.Errorf("expected '[' in %q", s)
	}
	end := strings.Index(s, "]")
	if end < 0 {
		return nil, s, fmt.Errorf("unterminated list in %q", s)
	}
	return strings.Fields(s[1:end]), strings.TrimSpace(s[end+1:]), nil
}
