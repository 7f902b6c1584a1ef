package driver

// SetSpecHook installs specHook for the external tests, or removes it
// when f is nil.
func SetSpecHook(f func(launched bool, inFlight int64)) { specHook = f }
