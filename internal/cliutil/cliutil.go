// Package cliutil gives every oraql command one exit-code and error
// contract:
//
//	0  success
//	1  operational failure (compile error, divergence, I/O, server)
//	2  usage error (bad flags, unknown subcommand, missing arguments)
//
// and one shared `-json` error envelope: when a tool runs in JSON
// mode, failures are emitted to stderr as a single JSON object
// ({"tool": ..., "error": ..., "code": ...}) instead of a prose line,
// so scripted callers parse one shape across the oraql subcommands,
// oraql-serve and the serve API alike. It also declares the flags
// several commands share (flags.go).
package cliutil

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Exit codes shared by all CLIs.
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
)

// usageError marks an error as the caller's fault (exit code 2).
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// Usagef returns a usage error (exit code 2).
func Usagef(format string, args ...any) error {
	return usageError{err: fmt.Errorf(format, args...)}
}

// WrapUsage marks an existing error (e.g. from flag parsing) as a
// usage error; nil stays nil.
func WrapUsage(err error) error {
	if err == nil {
		return nil
	}
	return usageError{err: err}
}

// IsUsage reports whether err is marked as a usage error.
func IsUsage(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

// ExitCode maps an error to the shared exit-code contract.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case IsUsage(err):
		return ExitUsage
	default:
		return ExitFailure
	}
}

// Envelope is the shared JSON error shape.
type Envelope struct {
	Tool  string `json:"tool"`
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// Report prints err under the shared contract — prose
// ("tool: message") by default, the JSON envelope in JSON mode — and
// returns the process exit code. A nil err prints nothing.
func Report(stderr io.Writer, tool string, jsonMode bool, err error) int {
	code := ExitCode(err)
	if err == nil {
		return code
	}
	if jsonMode {
		data, merr := json.Marshal(Envelope{Tool: tool, Error: err.Error(), Code: code})
		if merr != nil {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
			return code
		}
		fmt.Fprintln(stderr, string(data))
		return code
	}
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return code
}

// WantsJSON reports whether argv requests JSON mode, recognising
// `-json`, `--json`, `-json=...`, and `--json=...` anywhere on the
// command line (before flag parsing runs, so parse failures are
// enveloped too).
func WantsJSON(argv []string) bool {
	for _, a := range argv {
		if !strings.HasPrefix(a, "-") {
			continue
		}
		trimmed := strings.TrimPrefix(strings.TrimPrefix(a, "-"), "-")
		if trimmed == "json" || strings.HasPrefix(trimmed, "json=") {
			return true
		}
	}
	return false
}
