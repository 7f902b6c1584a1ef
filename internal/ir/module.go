package ir

import "fmt"

// Block is a basic block: a straight-line instruction sequence ending in
// a terminator.
type Block struct {
	Name   string
	ID     int
	Instrs []*Instr
	Parent *Func
}

// Term returns the block terminator, or nil if the block is unterminated.
func (b *Block) Term() *Instr {
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		if !b.Instrs[i].dead {
			if b.Instrs[i].IsTerminator() {
				return b.Instrs[i]
			}
			return nil
		}
	}
	return nil
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil || t.Op != OpBr {
		return nil
	}
	return t.Succs
}

// Compact erases instructions marked dead. Pass cleanups call this once
// per block after a batch of removals.
func (b *Block) Compact() {
	out := b.Instrs[:0]
	for _, in := range b.Instrs {
		if !in.dead {
			out = append(out, in)
		}
	}
	// Zero the tail so removed instructions can be collected.
	for i := len(out); i < len(b.Instrs); i++ {
		b.Instrs[i] = nil
	}
	b.Instrs = out
}

// Ident returns the printed label of the block.
func (b *Block) Ident() string { return b.Name }

// FuncAttrs captures the whole-function attributes the optimizer
// understands.
type FuncAttrs struct {
	ReadNone bool // accesses no memory
	ReadOnly bool // reads but never writes memory
	Kernel   bool // GPU kernel entry point (offload targets)
	Outlined bool // OpenMP-outlined parallel region body
}

// Func is an IR function.
type Func struct {
	Name   string
	Params []*Arg
	RetTy  *Type
	Blocks []*Block
	Attrs  FuncAttrs
	Parent *Module
	ID     int // dense module-level index

	nextInstrID int
	nextBlockID int
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a new empty block with the given name hint.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: fmt.Sprintf("%s%d", name, f.nextBlockID), ID: f.nextBlockID, Parent: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// AllocID hands out a fresh instruction ID. Passes that synthesize
// instructions must use this (never renumber): instruction IDs feed
// value identities (VIDs), and ORAQL's query cache requires a value's
// VID to stay stable for the whole compilation.
func (f *Func) AllocID() int {
	id := f.nextInstrID
	f.nextInstrID++
	return id
}

// AllocBlockID hands out a fresh block ID for a block made outside
// NewBlock, which renames it: the IR parser keeps its labels. Clone
// maps block references by ID, so every block needs its own.
func (f *Func) AllocBlockID() int {
	id := f.nextBlockID
	f.nextBlockID++
	return id
}

// NextInstrID and NextBlockID are the IDs the next AllocID / NewBlock
// will hand out.
func (f *Func) NextInstrID() int { return f.nextInstrID }

// NextBlockID: see NextInstrID.
func (f *Func) NextBlockID() int { return f.nextBlockID }

// Compact erases dead instructions from every block.
func (f *Func) Compact() {
	for _, b := range f.Blocks {
		b.Compact()
	}
}

// InstrCount returns the number of live instructions.
func (f *Func) InstrCount() int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !in.dead {
				n++
			}
		}
	}
	return n
}

// ReplaceAllUses rewrites every operand use of old to new within the
// function. The IR keeps no use lists (functions are small), so this is
// a linear scan.
func (f *Func) ReplaceAllUses(old, new Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, op := range in.Operands {
				if op == old {
					in.Operands[i] = new
				}
			}
		}
	}
}

// Module is a translation unit: globals plus functions, with a target
// string used by multi-target (offload) compilation.
type Module struct {
	Name    string
	Target  string // e.g. "x86_64" or "gpu-sim" (device part of offload)
	Globals []*Global
	Funcs   []*Func

	// TBAA is the type-based alias analysis tag tree for this module.
	TBAA *TBAATree
}

// NewModule returns an empty module targeting the host.
func NewModule(name string) *Module {
	return &Module{Name: name, Target: "x86_64", TBAA: NewTBAATree()}
}

// AddGlobal appends a global and assigns its dense ID.
func (m *Module) AddGlobal(g *Global) *Global {
	g.ID = len(m.Globals)
	m.Globals = append(m.Globals, g)
	return g
}

// GlobalByName returns the named global, or nil.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddFunc appends a function and assigns its dense ID.
func (m *Module) AddFunc(f *Func) *Func {
	f.ID = len(m.Funcs)
	f.Parent = m
	m.Funcs = append(m.Funcs, f)
	return f
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// InstrCount returns the number of live instructions in the module.
func (m *Module) InstrCount() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.InstrCount()
	}
	return n
}
