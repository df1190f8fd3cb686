//go:build race

package ledger

// raceEnabled lets the volume tests shrink under the race detector, where
// ed25519 runs about ten times slower.
const raceEnabled = true
