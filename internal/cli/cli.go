// Package cli is the front end the batch binaries share: pprof profiles
// around a run, and the check that a mode reads every flag it was given.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
)

// Profile runs body with a CPU profile written to cpuFile, then writes a heap
// profile to memFile; either may be empty to skip that profile. Both are
// written whether or not body fails, so a run that ends in an error still
// leaves usable profiles behind. body's error wins over a profile error.
func Profile(cpuFile, memFile string, body func() error) error {
	var cpu *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("prof: starting CPU profile: %w", err)
		}
		cpu = f
	}
	err := body()
	keep := func(perr error) {
		if err == nil && perr != nil {
			err = fmt.Errorf("prof: %w", perr)
		}
	}
	if cpu != nil {
		pprof.StopCPUProfile()
		keep(cpu.Close())
	}
	if memFile != "" {
		f, ferr := os.Create(memFile)
		keep(ferr)
		if ferr == nil {
			runtime.GC() // get up-to-date live-object statistics
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	return err
}

// Only refuses the first flag passed on fs, in lexical order, that the mode
// does not read — neither its own flag nor one of reads — instead of silently
// ignoring a setting the user thinks took effect.
func Only(fs *flag.FlagSet, mode, own string, reads ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != own && !slices.Contains(reads, f.Name) {
			err = fmt.Errorf("-%s does not apply to %s", f.Name, mode)
		}
	})
	return err
}

// IsSet reports whether the flag name was passed on fs.
func IsSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}
