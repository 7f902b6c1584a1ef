package aa

// IsNonCapturedRef exports the reference capture check to the external
// test package.
var IsNonCapturedRef = isNonCapturedRef
