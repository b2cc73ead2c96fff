package expt

import "testing"

func TestRunCommModels(t *testing.T) {
	cfg := DefaultCommModelsConfig()
	cfg.Granularities = []float64{0.4, 1.6}
	cfg.GraphsPerPoint = 4
	cfg.TasksMin, cfg.TasksMax = 40, 60
	cfg.Procs = 10
	fig, err := RunCommModels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 algorithms × 3 models.
	if len(fig.Series) != 9 {
		t.Fatalf("series = %d, want 9", len(fig.Series))
	}
	mean := func(name string) float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				tot := 0.0
				for _, p := range s.Points {
					tot += p.Mean()
				}
				return tot / float64(len(s.Xs))
			}
		}
		t.Fatalf("missing series %q", name)
		return 0
	}
	// Port limits can only slow things down, and wider ports recover.
	for _, algo := range []string{"FTSA", "MC-FTSA", "FTBAR"} {
		free := mean(algo + " (free)")
		one := mean(algo + " (1-port)")
		four := mean(algo + " (4-port)")
		if one < free-1e-9 {
			t.Errorf("%s: one-port %.2f below contention-free %.2f", algo, one, free)
		}
		if four > one+1e-9 {
			t.Errorf("%s: 4-port %.2f above one-port %.2f", algo, four, one)
		}
	}
	// The one-port penalty must hit the chatty schedules (FTSA, FTBAR)
	// harder than MC-FTSA, which sends (ε+1)x fewer messages.
	ftsaPenalty := mean("FTSA (1-port)") / mean("FTSA (free)")
	mcPenalty := mean("MC-FTSA (1-port)") / mean("MC-FTSA (free)")
	if mcPenalty > ftsaPenalty {
		t.Errorf("MC-FTSA one-port penalty %.3f exceeds FTSA's %.3f — the paper's §7 conjecture direction fails",
			mcPenalty, ftsaPenalty)
	}
}

func TestRunCommModelsValidation(t *testing.T) {
	cfg := DefaultCommModelsConfig()
	cfg.Ports = 1
	if _, err := RunCommModels(cfg); err == nil {
		t.Error("K=1 multi-port accepted")
	}
	cfg = DefaultCommModelsConfig()
	cfg.Granularities = nil
	if _, err := RunCommModels(cfg); err == nil {
		t.Error("empty sweep accepted")
	}
}
