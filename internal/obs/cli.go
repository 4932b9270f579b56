package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// ResolveSeed maps the -seed flag convention shared by the binaries to
// the seed actually used: a zero flag value derives a fresh seed from
// the clock. Binaries must print and journal the resolved seed so any
// run — auto-derived or not — can be replayed exactly with -seed.
func ResolveSeed(flagSeed int64) (seed int64, derived bool) {
	if flagSeed != 0 {
		return flagSeed, false
	}
	seed = time.Now().UnixNano()
	if seed == 0 {
		seed = 1
	}
	return seed, true
}

// StartPprof starts a CPU profile at prefix.cpu.pprof and returns a
// stop function that ends it and writes a heap profile (after a GC) to
// prefix.heap.pprof.
func StartPprof(prefix string) (stop func() error, err error) {
	cf, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cf.Close(); err != nil {
			return err
		}
		hf, err := os.Create(prefix + ".heap.pprof")
		if err != nil {
			return err
		}
		defer hf.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(hf)
	}, nil
}

// OpenRun is the run setup the CLIs share: it starts CPU profiling
// when pprofPrefix is set (see StartPprof) and opens the JSONL journal
// when journalPath is set, returning a nil sink otherwise. finish
// closes the journal and then stops the profile; it returns the
// journal's first write, flush or close error, while a profile error
// is only printed to stderr as a warning under the tool's name.
func OpenRun(tool, journalPath, pprofPrefix string) (sink *JournalSink, finish func() error, err error) {
	stop := func() error { return nil }
	if pprofPrefix != "" {
		if stop, err = StartPprof(pprofPrefix); err != nil {
			return nil, nil, err
		}
	}
	closeJournal := func() error { return nil }
	if journalPath != "" {
		if sink, closeJournal, err = OpenJournal(journalPath); err != nil {
			stop()
			return nil, nil, err
		}
	}
	return sink, func() error {
		err := closeJournal()
		if serr := stop(); serr != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, serr)
		}
		return err
	}, nil
}
