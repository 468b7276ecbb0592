//go:build race

package mat

// raceEnabled mirrors the race-detector build tag: sync.Pool deliberately
// drops a fraction of Put items when the detector is on, so strict
// zero-allocation assertions only hold without it.
const raceEnabled = true
