package cliutil

import (
	"fmt"
	"io"

	"github.com/oraql/go-oraql/internal/registry"
)

// PrintRegistries renders every extension point the process has
// registered — strategies, AA analyses and chains, app configs,
// grammar profiles — as `oraql list` prints them. The kinds argument
// filters to specific registry kinds; empty prints all, in
// registration order.
func PrintRegistries(w io.Writer, kinds ...string) {
	want := map[string]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	first := true
	for _, r := range registry.All() {
		if len(want) > 0 && !want[r.Kind()] {
			continue
		}
		if !first {
			fmt.Fprintln(w)
		}
		first = false
		fmt.Fprintf(w, "%s — %s\n", r.Kind(), r.Description())
		for _, e := range r.Entries() {
			fmt.Fprintf(w, "  %-22s %s\n", e.Name, e.Description)
			for _, o := range e.Options {
				fmt.Fprintf(w, "    -%s (%s): %s\n", o.Name, o.Type, o.Description)
			}
		}
	}
}
