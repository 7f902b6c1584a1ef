package registry

import "testing"

func TestRegisterLookupOrder(t *testing.T) {
	r := New("test-kind", "a test registry")
	r.Register(Entry{Name: "b", Description: "second", Value: 2})
	r.Register(Entry{Name: "a", Description: "first", Value: 1})

	if got := r.Names(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("Names() = %v, want registration order [b a]", got)
	}
	e, ok := r.Lookup("a")
	if !ok || e.Value.(int) != 1 {
		t.Fatalf("Lookup(a) = %+v, %v", e, ok)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}
	if r.Len() != 2 {
		t.Fatalf("Len() = %d", r.Len())
	}
}

func TestDuplicateAndEmptyNamePanic(t *testing.T) {
	r := New("test-dup", "")
	r.Register(Entry{Name: "x"})
	mustPanic(t, func() { r.Register(Entry{Name: "x"}) })
	mustPanic(t, func() { r.Register(Entry{}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestGlobalListAndBuiltinRegistries(t *testing.T) {
	all := All()
	if len(all) < 5 {
		t.Fatalf("All() = %d registries, want at least the 5 built-ins", len(all))
	}
	kinds := map[string]bool{}
	for _, r := range all {
		kinds[r.Kind()] = true
	}
	for _, want := range []string{"strategy", "aa-analysis", "aa-chain", "app-config", "grammar"} {
		if !kinds[want] {
			t.Errorf("built-in registry %q not in All(): have %v", want, kinds)
		}
	}
}
