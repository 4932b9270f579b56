package main

import (
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	type flags struct {
		workers, queue, leaseTrials int
		leaseTimeout, grace         time.Duration
		store, storeDir             string
	}
	ok := flags{workers: 2, queue: 8, leaseTrials: 4, leaseTimeout: time.Minute, grace: time.Second, store: "memory"}
	for _, c := range []struct {
		name string
		edit func(*flags)
		want string // "" accepts; else the start of the error, naming the flag
	}{
		{"defaults", func(f *flags) { *f = flags{grace: 30 * time.Second, store: "memory"} }, ""},
		{"set", func(*flags) {}, ""},
		{"wal", func(f *flags) { f.store, f.storeDir = "wal", "/tmp/x" }, ""},
		{"workers", func(f *flags) { f.workers = -1 }, "-workers -1:"},
		{"queue", func(f *flags) { f.queue = -3 }, "-queue -3:"},
		{"lease-trials", func(f *flags) { f.leaseTrials = -1 }, "-lease-trials -1:"},
		{"lease-timeout", func(f *flags) { f.leaseTimeout = -time.Second }, "-lease-timeout -1s:"},
		{"grace", func(f *flags) { f.grace = -time.Second }, "-grace -1s:"},
		{"wal without dir", func(f *flags) { f.store = "wal" }, "-store wal:"},
		{"dir without wal", func(f *flags) { f.storeDir = "/tmp/x" }, "-store-dir /tmp/x:"},
		{"unknown store", func(f *flags) { f.store = "disk" }, `-store "disk":`},
	} {
		f := ok
		c.edit(&f)
		err := checkFlags(f.workers, f.queue, f.leaseTrials, f.leaseTimeout, f.grace, f.store, f.storeDir)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v, want accepted", c.name, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error starting %q", c.name, err, c.want)
		}
	}
}

// TestStartupLine: the startup line prints the worker count and queue
// capacity in effect, not the raw flags.
func TestStartupLine(t *testing.T) {
	addr := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 8080}
	for _, c := range []struct {
		workers, queue int
		want           string
	}{
		{0, 0, "(workers " + strconv.Itoa(runtime.GOMAXPROCS(0)) + ", queue 64, store wal)"},
		{3, 5, "(workers 3, queue 5, store wal)"},
	} {
		if got := startupLine(addr, c.workers, c.queue, "wal"); !strings.HasSuffix(got, c.want) || !strings.Contains(got, "127.0.0.1:8080") {
			t.Errorf("startupLine(workers %d, queue %d) = %q, want it to end %q", c.workers, c.queue, got, c.want)
		}
	}
}
