package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/request"
)

// Parse parses args into fs under the shared contract: flags may come
// before or after the positional arguments, which fs.Args returns in
// order, and a "--" ends flag parsing; a bad flag is a usage error, and
// -h prints the command's flags to stderr and is a usage error too, so
// both exit 2.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(io.Discard)
	var positional []string
	for {
		err := fs.Parse(args)
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fmt.Fprintf(stderr, "Usage of %s:\n", fs.Name())
			fs.PrintDefaults()
		}
		if err != nil {
			return WrapUsage(err)
		}
		// fs.Parse stops at the first non-flag argument, or consumes a
		// "--" and stops after it.
		rest := fs.Args()
		if used := len(args) - len(rest); len(rest) == 0 || used > 0 && args[used-1] == "--" {
			positional = append(positional, rest...)
			break
		}
		positional = append(positional, rest[0])
		args = rest[1:]
	}
	// Leave the positional arguments where fs.Args reads them.
	return fs.Parse(append([]string{"--"}, positional...))
}

// MaxArgs is a usage error when fs holds more than max positional
// arguments.
func MaxArgs(fs *flag.FlagSet, max int) error {
	if fs.NArg() > max {
		return Usagef("unexpected arguments: %v", fs.Args()[max:])
	}
	return nil
}

// Store is the persistent store a command names with -cache-dir.
type Store struct {
	Dir   string
	MaxMB int
}

// DirFlag declares -cache-dir alone.
func (s *Store) DirFlag(fs *flag.FlagSet) {
	fs.StringVar(&s.Dir, "cache-dir", "", "persistent store shared across processes: compile artifacts, campaign state and the forensics warehouse (empty = none)")
}

// Flags declares -cache-dir and -cache-max-mb.
func (s *Store) Flags(fs *flag.FlagSet) {
	s.DirFlag(fs)
	fs.IntVar(&s.MaxMB, "cache-max-mb", 0, "size cap for -cache-dir in MiB before GC evicts cold entries (0 = 512)")
}

// Open opens the store; without -cache-dir it is nil.
func (s *Store) Open() (*diskcache.Store, error) { return OpenCache(s.Dir, s.MaxMB) }

// ProgramFlags declares -model, -fortran and -views, which say how a
// source file compiles, into p.
func ProgramFlags(fs *flag.FlagSet, p *request.ProgramSpec) {
	fs.StringVar(&p.Model, "model", "seq", "parallel model of a source file (seq|openmp|tasks|mpi|offload)")
	fs.BoolVar(&p.Fortran, "fortran", false, "Fortran dialect (descriptor arrays, no TBAA) for a source file")
	fs.BoolVar(&p.Views, "views", false, "Kokkos/Thrust-style boxed heap arrays for a source file")
}
