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
// has a resolved operand or an explicit type to lean on.
func (fp *funcParser) operands(r rawInstr) error {
	in := r.in
	text := r.text
	rest := strings.TrimSpace(strings.TrimPrefix(text, in.Op.String()))
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
		args := splitArgs(rest)
		if len(args) != 2 {
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
		in.Operands = []ir.Value{ptr}

	case ir.OpStore:
		// store TYPE VAL, PTR
		args := splitArgs(rest)
		if len(args) != 2 {
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
		in.Operands = []ir.Value{val, ptr}

	case ir.OpGEP:
		// gep BASE + IDX*SCALE + OFF   |   gep BASE + OFF
		in.Ty = ir.Ptr
		parts := strings.Split(rest, " + ")
		base, err := fp.value(parts[0], ir.Ptr)
		if err != nil {
			return err
		}
		in.Operands = []ir.Value{base}
		switch len(parts) {
		case 2:
			in.Off, err = strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
			if err != nil {
				return fmt.Errorf("gep offset: %w", err)
			}
		case 3:
			star := strings.LastIndex(parts[1], "*")
			if star < 0 {
				return fmt.Errorf("gep index missing scale")
			}
			idx, err := fp.value(parts[1][:star], ir.I64)
			if err != nil {
				return err
			}
			in.Operands = append(in.Operands, idx)
			in.Scale, err = strconv.ParseInt(strings.TrimSpace(parts[1][star+1:]), 10, 64)
			if err != nil {
				return fmt.Errorf("gep scale: %w", err)
			}
			in.Off, err = strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
			if err != nil {
				return fmt.Errorf("gep offset: %w", err)
			}
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
		tail := splitArgs(rest[arrow+4:])
		if len(tail) != 2 {
			return fmt.Errorf("memcpy wants 'SRC, N'")
		}
		src, err := fp.value(tail[0], ir.Ptr)
		if err != nil {
			return err
		}
		n, err := fp.value(tail[1], ir.I64)
		if err != nil {
			return err
		}
		in.Operands = []ir.Value{dst, src, n}

	case ir.OpMemSet:
		args := splitArgs(rest)
		if len(args) != 3 {
			return fmt.Errorf("memset wants 'DST, VAL, N'")
		}
		return fp.resolveList(in, args, []*ir.Type{ir.Ptr, ir.I64, ir.I64}, ir.Void)

	case ir.OpICmp, ir.OpFCmp:
		// icmp PRED a, b
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) < 2 {
			return fmt.Errorf("cmp wants 'PRED a, b'")
		}
		pred, ok := predByName[fields[0]]
		if !ok {
			return fmt.Errorf("unknown predicate %q", fields[0])
		}
		in.Pred = pred
		hint := ir.I64
		if in.Op == ir.OpFCmp {
			hint = ir.F64
		}
		args := splitArgs(fields[1])
		if len(args) != 2 {
			return fmt.Errorf("cmp wants two operands")
		}
		if err := fp.resolveBin(in, args, hint); err != nil {
			return err
		}
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
		for _, inc := range splitArgs(rest[tyEnd:]) {
			inc = strings.TrimSpace(inc)
			if !strings.HasPrefix(inc, "[") || !strings.HasSuffix(inc, "]") {
				return fmt.Errorf("malformed phi incoming %q", inc)
			}
			parts := splitArgs(inc[1 : len(inc)-1])
			if len(parts) != 2 || !strings.HasPrefix(parts[1], "%") {
				return fmt.Errorf("malformed phi incoming %q", inc)
			}
			v, err := fp.value(parts[0], in.Ty)
			if err != nil {
				return err
			}
			blk, ok := fp.blocks[strings.TrimPrefix(parts[1], "%")]
			if !ok {
				return fmt.Errorf("phi references unknown block %q", parts[1])
			}
			in.Operands = append(in.Operands, v)
			in.Incoming = append(in.Incoming, blk)
		}

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
		callee := fp.m.FuncByName(in.Callee)
		intrTypes := intrinsicParamTypes[in.Callee]
		for i, a := range splitArgs(rest[open+1 : len(rest)-1]) {
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
			in.Operands = append(in.Operands, v)
		}

	case ir.OpBr:
		args := splitArgs(rest)
		switch len(args) {
		case 1:
			blk, ok := fp.blocks[strings.TrimPrefix(args[0], "%")]
			if !ok {
				return fmt.Errorf("br to unknown block %q", args[0])
			}
			in.Succs = []*ir.Block{blk}
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
			in.Operands = []ir.Value{cond}
			in.Succs = []*ir.Block{t, e}
		default:
			return fmt.Errorf("malformed br")
		}

	case ir.OpRet:
		if rest != "void" && rest != "" {
			hint := fp.fn.RetTy
			v, err := fp.value(rest, hint)
			if err != nil {
				return err
			}
			in.Operands = []ir.Value{v}
		}

	case ir.OpSIToFP:
		v, err := fp.valueInferred(rest, ir.I64)
		if err != nil {
			return err
		}
		in.Operands = []ir.Value{v}
		in.Ty = ir.F64
		if v.Type().Kind == ir.KVec {
			in.Ty = ir.V4F64
		}

	case ir.OpFPToSI:
		v, err := fp.valueInferred(rest, ir.F64)
		if err != nil {
			return err
		}
		in.Operands = []ir.Value{v}
		in.Ty = ir.I64
		if v.Type().Kind == ir.KVec {
			in.Ty = ir.V4I64
		}

	case ir.OpSelect:
		args := splitArgs(rest)
		if len(args) != 3 {
			return fmt.Errorf("select wants three operands")
		}
		cond, err := fp.value(args[0], ir.I1)
		if err != nil {
			return err
		}
		if err := fp.resolveBin(in, args[1:], ir.I64); err != nil {
			return err
		}
		in.Operands = append([]ir.Value{cond}, in.Operands...)
		in.Ty = in.Operands[1].Type()

	case ir.OpVSplat:
		// Constant splats carry their element type in the token itself
		// ("vsplat 3" is an i64 splat, "vsplat 3.0" a double one); %refs
		// resolve by lookup, so the hint only decides bare constants.
		hint := ir.F64
		if t := strings.TrimSpace(rest); !strings.HasPrefix(t, "%") && !looksFloat(t) {
			hint = ir.I64
		}
		v, err := fp.valueInferred(rest, hint)
		if err != nil {
			return err
		}
		elem := scalarOf(v.Type())
		if elem != ir.I64 && elem != ir.F64 {
			return fmt.Errorf("vsplat of %s", v.Type())
		}
		in.Operands = []ir.Value{v}
		in.Ty = ir.VecType(elem, 4)

	case ir.OpVExtract:
		args := splitArgs(rest)
		if len(args) != 2 {
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
		in.Operands = []ir.Value{vec, lane}
		in.Ty = vec.Type().Elem

	case ir.OpVInsert:
		args := splitArgs(rest)
		if len(args) != 3 {
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
		in.Operands = []ir.Value{vec, val, lane}
		in.Ty = vec.Type()

	case ir.OpVReduce:
		v, err := fp.valueInferred(rest, ir.V4F64)
		if err != nil {
			return err
		}
		if v.Type().Kind != ir.KVec {
			return fmt.Errorf("vreduce of %s", v.Type())
		}
		in.Operands = []ir.Value{v}
		in.Ty = v.Type().Elem

	default: // binary arithmetic
		hint := ir.I64
		switch in.Op {
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
			hint = ir.F64
		}
		args := splitArgs(rest)
		if len(args) != 2 {
			return fmt.Errorf("binary op wants two operands")
		}
		if err := fp.resolveBin(in, args, hint); err != nil {
			return err
		}
		in.Ty = in.Operands[0].Type()
		if in.Ty == ir.Void || in.Ty == ir.Ptr {
			// Pointer-typed operand in arithmetic cannot happen; Void
			// means both were constants — fall back to the hint.
			in.Ty = hint
		}
		// Constants next to a typed operand adopt its type family.
		if in.Operands[0].Type().Kind == ir.KVec || in.Operands[1].Type().Kind == ir.KVec {
			for i, op := range in.Operands {
				if op.Type().Kind != ir.KVec {
					_ = i // scalar-with-vector never printed; defensive only
				}
			}
			in.Ty = in.Operands[0].Type()
		}
	}
	return fp.metadata(in, r.meta)
}

// resolveBin resolves two operand tokens, preferring a referenced
// value's type as the constant hint.
func (fp *funcParser) resolveBin(in *ir.Instr, args []string, hint *ir.Type) error {
	ty := hint
	for _, a := range args {
		a = strings.TrimSpace(a)
		if strings.HasPrefix(a, "%") || strings.HasPrefix(a, "@") {
			v, err := fp.value(a, hint)
			if err != nil {
				return err
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
			return err
		}
		in.Operands = append(in.Operands, v)
	}
	return nil
}

// resolveList resolves tokens against per-position type hints.
func (fp *funcParser) resolveList(in *ir.Instr, args []string, hints []*ir.Type, resTy *ir.Type) error {
	for i, a := range args {
		v, err := fp.value(a, hints[i])
		if err != nil {
			return err
		}
		in.Operands = append(in.Operands, v)
	}
	in.Ty = resTy
	return nil
}

// valueInferred resolves a single token, using the referenced value's
// own type when available.
func (fp *funcParser) valueInferred(tok string, hint *ir.Type) (ir.Value, error) {
	return fp.value(tok, hint)
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
	return strings.ContainsAny(s, ".eE") && !strings.HasPrefix(s, `"`)
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
			end := strings.Index(loc, " !")
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
