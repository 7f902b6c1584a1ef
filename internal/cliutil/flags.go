package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/request"
)

// Parse parses args into fs under the shared contract: a bad flag is a
// usage error, and -h prints the command's flags to stderr and is a
// usage error too, so both exit 2.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stderr)
		fmt.Fprintf(stderr, "Usage of %s:\n", fs.Name())
		fs.PrintDefaults()
	}
	return WrapUsage(err)
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
