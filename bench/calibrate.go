package main

import "time"

// The reference host shares its cores with other tenants, and its speed
// drifts: by up to a half over minutes, in slow phases that outlast a run
// (README, "Steadiness"). The host slows execution itself, so CPU time
// drifts with wall time, and no estimator over a run's own timings can
// tell a slow phase from slow code. A run therefore also times a fixed
// piece of work that uses none of the code under test, right after every
// set-up and every pass, and reports their timings at the speed the
// reference host has when that work takes calNominal.

// calNominal is about the fastest a calibration round ran on the
// reference host.
const calNominal = 300 * time.Microsecond

// calShare is the calibration time after a pass as a share of the pass's
// wall time; at least one round runs after every pass.
const calShare = 0.04

// A calibrator times rounds of the calibration work: splitmix64 draws,
// each a dependent load at a random slot of a 32 KiB table, a branch on
// a random bit of the loaded word, which no predictor can learn, and a
// store. An untimed sweep brings the table into L1 first, so the round
// does not depend on what the pass before it left in the caches. A
// round allocates nothing, so it neither triggers nor assists a GC
// cycle. With the mispredicted branch the round follows the workloads'
// slowdowns more closely than without it (README, "Calibration").
type calibrator struct {
	table []uint64
	sink  uint64
}

func newCalibrator() *calibrator { return &calibrator{table: make([]uint64, 1<<12)} }

func (c *calibrator) round() time.Duration {
	acc := c.sink
	for _, v := range c.table {
		acc += v
	}
	t0 := time.Now()
	z := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(c.table) - 1)
	for i := 0; i < 1<<15; i++ {
		z += 0x9e3779b97f4a7c15
		x := (z ^ z>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		j := (x ^ acc) & mask
		v := c.table[j]
		// A store on one side keeps the compiler from making this a
		// conditional move.
		if v&1 != 0 {
			c.table[(j+7)&mask] = acc
			acc += v >> 3
		} else {
			acc ^= v
		}
		c.table[j] = x
	}
	d := time.Since(t0)
	c.sink = acc
	return d
}

// rounds runs n rounds and returns their total time.
func (c *calibrator) rounds(n int) (total time.Duration) {
	for range n {
		total += c.round()
	}
	return total
}

// after runs the rounds that follow a pass of wall time d, and returns
// how many ran and their total time.
func (c *calibrator) after(d time.Duration) (rounds int, total time.Duration) {
	n := max(1, int(calShare*float64(d)/float64(calNominal)))
	return n, c.rounds(n)
}

// speedOf is the host speed relative to the reference that n rounds
// taking total time show: below 1 in a slower phase or on a slower host.
func speedOf(n int, total time.Duration) float64 {
	return float64(calNominal) * float64(n) / float64(total)
}
