package ir

import (
	"bytes"
	"fmt"
	"strconv"
)

// Value is anything that can appear as an instruction operand: constants,
// globals, function arguments, and instructions themselves.
type Value interface {
	// Type returns the value's IR type.
	Type() *Type
	// Ident returns the value's printed identifier (e.g. "%x", "@g", "7").
	Ident() string
	// VID returns a stable identifier used for deterministic ordering
	// and for ORAQL's query cache. Within one module two distinct
	// pointer-producing values never share a VID.
	VID() int64
}

// VID name-spaces: constants, globals, arguments and instructions get
// disjoint ID ranges so a single int64 identifies a value unambiguously.
const (
	vidConst int64 = 1 << 40
	vidGlob  int64 = 2 << 40
	vidArg   int64 = 3 << 40
	vidInstr int64 = 4 << 40
)

// Const is an integer, boolean, or floating-point literal.
type Const struct {
	Ty  *Type
	I   int64   // value for I1/I64
	F   float64 // value for F64
	Str string  // for string constants referenced by print intrinsics
}

// ConstInt returns an i64 constant.
func ConstInt(v int64) *Const { return &Const{Ty: I64, I: v} }

// ConstBool returns an i1 constant.
func ConstBool(v bool) *Const {
	if v {
		return &Const{Ty: I1, I: 1}
	}
	return &Const{Ty: I1}
}

// ConstFloat returns a double constant.
func ConstFloat(v float64) *Const { return &Const{Ty: F64, F: v} }

// ConstStr returns a string constant; only valid as a print operand.
func ConstStr(s string) *Const { return &Const{Ty: Ptr, Str: s} }

// Type implements Value.
func (c *Const) Type() *Type { return c.Ty }

// Ident implements Value.
func (c *Const) Ident() string {
	var buf [32]byte
	return string(c.appendIdent(buf[:0]))
}

func (c *Const) appendIdent(b []byte) []byte {
	switch {
	case c.Str != "":
		return strconv.AppendQuote(b, c.Str)
	case c.Ty == F64:
		return appendF64(b, c.F)
	default:
		return strconv.AppendInt(b, c.I, 10)
	}
}

// FormatF64 renders a float constant so the text itself carries the
// type: integral values get a ".0" suffix ("3.0", not "3"), keeping
// print→parse round-trips from silently retyping a float constant as
// an integer in contexts without an explicit type (vsplat, select,
// call arguments). The shortest-unique rendering is preserved
// otherwise, so parsing recovers the exact bit pattern.
func FormatF64(f float64) string {
	var buf [32]byte
	return string(appendF64(buf[:0], f))
}

func appendF64(b []byte, f float64) []byte {
	start := len(b)
	b = strconv.AppendFloat(b, f, 'g', -1, 64)
	if !bytes.ContainsAny(b[start:], ".eEnN") { // Inf/NaN keep their letters
		b = append(b, ".0"...)
	}
	return b
}

// VID implements Value. Constants are identified by their payload so
// that equal constants compare equal; they never alias anything as
// pointers (string constants are print-only).
func (c *Const) VID() int64 {
	if c.Ty == F64 {
		return vidConst | int64(uint32(hashF64(c.F)))
	}
	return vidConst | (c.I & 0xFFFFFFFF)
}

func hashF64(f float64) uint32 {
	// FNV-1a over the decimal rendering; only used to give distinct
	// float constants distinct-ish VIDs for ordering purposes.
	h := uint32(2166136261)
	for _, b := range []byte(fmt.Sprintf("%g", f)) {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// Global is a module-level memory object with optional initial contents.
type Global struct {
	Name     string
	Size     int64 // size in bytes
	InitI64  []int64
	InitF64  []float64
	Const    bool // read-only (never stored to); used by GlobalsAA
	Internal bool // address never escapes the module; used by GlobalsAA
	ID       int  // dense module-level index
}

// Type implements Value: a global evaluates to its address.
func (g *Global) Type() *Type { return Ptr }

// Ident implements Value.
func (g *Global) Ident() string { return "@" + g.Name }

// VID implements Value.
func (g *Global) VID() int64 { return vidGlob | int64(g.ID) }

// Arg is a function parameter.
type Arg struct {
	Name    string
	Ty      *Type
	NoAlias bool // the `restrict`/`noalias` attribute
	ID      int  // dense per-function index
	Func    *Func
}

// Type implements Value.
func (a *Arg) Type() *Type { return a.Ty }

// Ident implements Value.
func (a *Arg) Ident() string { return "%" + a.Name }

// VID implements Value.
func (a *Arg) VID() int64 { return vidArg | int64(a.Func.ID)<<20 | int64(a.ID) }
