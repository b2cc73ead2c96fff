// Package schedulers links every built-in scheduling algorithm into the
// sched registry. Schedulers register themselves from init functions of
// their own packages; a dispatch site that resolves schedulers by name
// (sched.LookupInfo / sched.Run) imports this package for side effects:
//
//	import _ "ftsched/internal/schedulers"
//
// The package's tests are also where cross-scheduler properties live: the
// registry-equivalence golden tests (every registered scheduler must produce
// byte-identical schedule JSON to its pre-refactor direct entry point on
// fixed seeds), the concurrent-dispatch race test, the per-scheduler
// BenchmarkSchedule series, and the docs/API.md table drift check.
package schedulers

import (
	// Each blank import registers that package's schedulers at init time.
	// The import order fixes the registry's canonical listing order.
	_ "ftsched/internal/core"  // ftsa, mcftsa, ftsa-ins
	_ "ftsched/internal/ftbar" // ftbar
	_ "ftsched/internal/heft"  // heft
)
