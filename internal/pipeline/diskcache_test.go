package pipeline

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
)

// tuKeyOf is the TU key a compile of cfg looks up.
func tuKeyOf(cfg Config) string { return cfg.tuKey(cfg.sourceName()) }

// Every ORAQL option that shapes the output is part of the TU key:
// changing any one field of oraql.Options but Dump and Out, which only
// print, changes the key. A field added later fails here until it is
// classified.
func TestTUKeyCoversORAQLOptions(t *testing.T) {
	base := Config{Name: "hello", Source: helloSrc, ORAQL: &oraql.Options{}}
	plain := base
	plain.ORAQL = nil
	if tuKeyOf(plain) == tuKeyOf(base) {
		t.Error("turning ORAQL on leaves the TU key unchanged")
	}
	printOnly := map[string]bool{"Dump": true, "Out": true}
	typ := reflect.TypeOf(oraql.Options{})
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		if printOnly[name] {
			continue
		}
		var opts oraql.Options
		if !setNonZero(reflect.ValueOf(&opts).Elem().Field(i)) {
			t.Fatalf("oraql.Options.%s: no non-zero value to try; classify the field here", name)
		}
		varied := base
		varied.ORAQL = &opts
		if tuKeyOf(varied) == tuKeyOf(base) {
			t.Errorf("oraql.Options.%s = %v leaves the TU key unchanged", name, reflect.ValueOf(opts).Field(i))
		}
	}
	quiet := base
	quiet.ORAQL = &oraql.Options{Dump: oraql.DumpFlags{First: true}, Out: &bytes.Buffer{}}
	if tuKeyOf(quiet) != tuKeyOf(base) {
		t.Error("Dump and Out, which only print, change the TU key")
	}
}

// setNonZero sets v to a non-zero value of its kind, for the kinds
// oraql.Options uses, and reports whether it knows one.
func setNonZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		v.SetInt(1)
	case reflect.String:
		v.SetString("main")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		if !setNonZero(s.Index(0)) {
			return false
		}
		v.Set(s)
	default:
		return false
	}
	return true
}

// A compile without ORAQL keeps the TU key it had before the key
// covered the ORAQL options, so every artifact filed before stays a
// hit. The keys are pinned.
func TestNonORAQLTUKeysUnchanged(t *testing.T) {
	mod, err := irtext.Parse("; module m target=host\ndefine double @f(double %x) {\nentry:\n  %y = fmul %x, %x\n  ret %y\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Name: "hello", Source: helloSrc},
			"1b065c23451b3422935185c4d5bb54e961e387e5e405d16296de9c155884349e"},
		{Config{Name: "hello", Source: helloSrc, SourceFile: "hello.mc", OptLevel: 1, StopAfter: 5, AAChain: "full"},
			"d06a70e46a0a863f416893ca4677622795f1e50ac53c84e6d65207adf9f6f88a"},
		{Config{Name: "omp", Source: helloSrc, OptLevel: -1, FullAAChain: true,
			Frontend: minic.Options{Dialect: minic.DialectFortran, Model: minic.ModelOpenMP, Views: true}},
			"401a837a28700b8765de3e05a3eca77e35cf648a9c3a7eebd872da8d2e1521a1"},
		{Config{Name: "ir", Module: mod},
			"fb24494dab64f2c76992f6119b4352c14fccaaed7254ed5ab41634bc7774646d"},
	} {
		if got := tuKeyOf(c.cfg); got != c.want {
			t.Errorf("%s: TU key %s, want %s", c.cfg.Name, got, c.want)
		}
	}
}

// tuOutcome flattens what a compile reports that a TU artifact must
// reproduce: exe hash, IR text, -stats, ORAQL counters and every query
// record as its readers see it.
func tuOutcome(cr *CompileResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "exe %s\n", cr.ExeHash())
	for _, ts := range []*TargetStats{cr.Host, cr.Device} {
		if ts != nil {
			sb.WriteString(ts.Module.String())
			ts.Pass.Print(&sb)
		}
	}
	fmt.Fprintf(&sb, "oraql %+v\n", cr.ORAQLStats())
	for _, rec := range cr.Records() {
		a, b := rec.LocDescriptions()
		la, lb := rec.SrcLocs()
		fmt.Fprintf(&sb, "record %d %t %s %s hits=%d %s %s %s %s\n",
			rec.Index, rec.Optimistic, rec.Pass, rec.Func, rec.CacheHits, a, b, la, lb)
	}
	return sb.String()
}

// recordsHold checks a compile's query records against the sequence
// and counters of its ORAQL options opts (nil: the pass was off, so
// there must be none): per target, record i has Index i and the
// sequence's answer at i, there is one record per unique query, and
// the records' cache hits sum to the cached counters by answer.
func recordsHold(cr *CompileResult, opts *oraql.Options) error {
	for _, ts := range []*TargetStats{cr.Host, cr.Device} {
		if ts == nil {
			continue
		}
		if (ts.ORAQL == nil) != (opts == nil) {
			return fmt.Errorf("%s: ORAQL pass present %t, ORAQL on %t", ts.Module.Name, ts.ORAQL != nil, opts != nil)
		}
		if opts == nil {
			continue
		}
		recs, s := ts.ORAQL.Records(), ts.ORAQL.Stats()
		var hits [2]int
		for i, rec := range recs {
			want := i >= len(opts.Seq) || opts.Seq[i]
			if rec.Index != i || rec.Optimistic != want {
				return fmt.Errorf("%s: record %d has index %d and answer %t, want %d and %t",
					ts.Module.Name, i, rec.Index, rec.Optimistic, i, want)
			}
			if rec.Optimistic {
				hits[1] += rec.CacheHits
			} else {
				hits[0] += rec.CacheHits
			}
		}
		if len(recs) != s.Unique() || hits != [2]int{s.CachedPessimistic, s.CachedOptimistic} {
			return fmt.Errorf("%s: %d records with cache hits %v, counters %+v", ts.Module.Name, len(recs), hits, s)
		}
	}
	return nil
}

// encodeSnapshot is storeTU's encoding of a snapshot.
func encodeSnapshot(tb testing.TB, snap *snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTUArtifact plants an arbitrary payload as the TU artifact of two
// compiles of helloSrc, a build without ORAQL and a final build under
// its sequence, and compiles each through the store. The compile never
// panics; it is served exactly when the payload restores; a build
// served from the payload has records that hold against its sequence
// and counters (recordsHold); and a payload that does not restore
// reads as a miss, so the compile equals the cold one (tuOutcome).
// The seeds are both real artifacts and the final broken one way
// each: IR cut in half, a flipped Optimistic bit, a dropped record,
// one extra CacheHits, and another sequence's build.
func FuzzTUArtifact(f *testing.F) {
	finalOpts := &oraql.Options{Seq: oraql.Seq{false}}
	configs := []Config{
		{Name: "hello", Source: helloSrc},
		{Name: "hello", Source: helloSrc, ORAQL: finalOpts},
	}
	cold := make([]string, len(configs))
	for i, cfg := range configs {
		cr, err := Compile(cfg)
		if err != nil {
			f.Fatal(err)
		}
		cold[i] = tuOutcome(cr)
		f.Add(encodeSnapshot(f, takeSnapshot(cr)))
	}
	plant := func(seq oraql.Seq, edit func(s *snapshot)) {
		cr, err := Compile(Config{Name: "hello", Source: helloSrc, ORAQL: &oraql.Options{Seq: seq}})
		if err != nil {
			f.Fatal(err)
		}
		snap := takeSnapshot(cr)
		if len(snap.Host.Records.Records) == 0 {
			f.Fatal("the final build asked no query")
		}
		edit(snap)
		f.Add(encodeSnapshot(f, snap))
	}
	plant(finalOpts.Seq, func(s *snapshot) { s.Host.IR = s.Host.IR[:len(s.Host.IR)/2] })
	plant(finalOpts.Seq, func(s *snapshot) {
		s.Host.Records.Records[0].Optimistic = !s.Host.Records.Records[0].Optimistic
	})
	plant(finalOpts.Seq, func(s *snapshot) {
		s.Host.Records.Records = s.Host.Records.Records[:len(s.Host.Records.Records)-1]
	})
	plant(finalOpts.Seq, func(s *snapshot) { s.Host.Records.Records[0].CacheHits++ })
	plant(make(oraql.Seq, 64), func(*snapshot) {})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		for i, cfg := range configs {
			store, err := diskcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cfg.DiskCache = store
			store.Put(tuKeyOf(cfg), payload)
			cr, err := Compile(cfg)
			if err != nil {
				t.Fatalf("%s (ORAQL %t): %v", cfg.Name, cfg.ORAQL != nil, err)
			}
			var snap snapshot
			restores := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap) == nil
			if restores {
				_, restores = snap.restore(cfg.ORAQL)
			}
			// A miss files the compile it ran beside the planted put.
			if served := store.Counters().Puts == 1; served != restores {
				t.Fatalf("ORAQL %t: payload restores %t, served %t", cfg.ORAQL != nil, restores, served)
			}
			if restores {
				if err := recordsHold(cr, cfg.ORAQL); err != nil {
					t.Fatalf("served build (ORAQL %t): %v", cfg.ORAQL != nil, err)
				}
				continue
			}
			if got := tuOutcome(cr); got != cold[i] {
				t.Fatalf("a payload that does not restore (ORAQL %t) gave a compile unlike the cold one:\n got %s\nwant %s",
					cfg.ORAQL != nil, got, cold[i])
			}
		}
	})
}
