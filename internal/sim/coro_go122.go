//go:build !go1.23

package sim

// Blocking bodies run as iter.Pull coroutines, which need Go 1.23.
var _ = blockingBodiesRequireGo1_23
