package main

import (
	"context"
	"fmt"

	"repro/internal/harness"
)

// checkAnswers is the correctness gate every run ends with. After a
// read-only run the routed fleet must answer the full query set
// byte-identically to the monolith it was built from. After writes, one
// anti-entropy pass settles replications still converging at the end of
// the run, the monolith is rebuilt, every journaled write is folded into
// it in its owner shard's commit order (LoadFleet.ReplayOwnedWrites),
// and then the two must be byte-identical. It returns the number of
// writes replayed.
func checkAnswers(ctx context.Context, spec *Spec, w Workload, f *Fleet) (int, error) {
	applied := 0
	monoFP := f.refFP
	if w.Mix.Reviews > 0 {
		if _, err := f.Router.RunRepair(ctx); err != nil {
			return 0, fmt.Errorf("repair pass before the fingerprint: %w", err)
		}
		_, db, err := buildMonolith(spec, w)
		if err != nil {
			return 0, fmt.Errorf("rebuild the monolith: %w", err)
		}
		lf := &harness.LoadFleet{DB: db, Manifest: f.Manifest, JournalDirs: f.JournalDirs}
		if applied, err = lf.ReplayOwnedWrites(); err != nil {
			return applied, err
		}
		monoFP, _ = harness.QueryFingerprint(f.Data, db)
	}
	fleetFP, n := harness.QueryFingerprint(f.Data, f.Router.Engine(ctx))
	if fleetFP != monoFP {
		return applied, fmt.Errorf("routed fleet and monolith answer the %d-entry query set differently (%d journaled writes replayed)", n, applied)
	}
	return applied, nil
}
