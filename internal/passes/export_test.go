package passes

import "github.com/oraql/go-oraql/internal/oraql"

// SetPublishHook installs f as the step memo's publish hook and
// returns the function that removes it.
func SetPublishHook(f func(oraql.Transcript)) (restore func()) {
	testHookPublish = f
	return func() { testHookPublish = nil }
}
