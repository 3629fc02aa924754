package powerflow

// ReferenceSolve exposes the reduced-dimension Newton oracle
// (newton_oracle_test.go) to the external-package differential tests.
var ReferenceSolve = referenceSolve
