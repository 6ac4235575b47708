//go:build race

package raceflag

// Enabled reports that the race detector is active.
const Enabled = true
