package repro

import (
	"fmt"
	"io"

	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

// VariantJobs flattens a sweep into ONE job list — every variant × artifact
// in variant-major order — so a single pool run keeps all workers busy
// across variant boundaries instead of draining between sequential
// per-variant runs. Emission order (and every output byte) is identical to
// the historical sequential loop for any worker count; job IDs are
// qualified with the variant name when a sweep has several, so aggregated
// errors say which variant's artifact failed. A nil enc selects the text
// encoder for opts.
func VariantJobs(arts []Artifact, opts Options, variants []*scenario.Scenario, enc Encoder) []runner.Job {
	jobs := make([]runner.Job, 0, len(arts)*len(variants))
	for _, v := range variants {
		vo := opts
		vo.Scenario = v
		e := enc
		if e == nil {
			e = textEncoder(vo)
		}
		vjobs := EncodeJobs(arts, vo, e)
		if v != nil && len(variants) > 1 {
			for i := range vjobs {
				vjobs[i].ID = arts[i].ID + "@" + v.Name
			}
		}
		jobs = append(jobs, vjobs...)
	}
	return jobs
}

// ComputeAllVariants is ComputeAll across a sweep: one flattened pool run,
// results grouped per variant in variant-major order with nil slots for
// failed artifacts, failures aggregated with variant-qualified IDs.
func ComputeAllVariants(pool runner.Pool, arts []Artifact, opts Options, variants []*scenario.Scenario) ([][]*result.Result, error) {
	out := make([][]*result.Result, len(variants))
	jobs := make([]runner.Job, 0, len(arts)*len(variants))
	for vi, v := range variants {
		out[vi] = make([]*result.Result, len(arts))
		vo := opts
		vo.Scenario = v
		for ai, a := range arts {
			vi, ai, a := vi, ai, a
			id := a.ID
			if v != nil && len(variants) > 1 {
				id = fmt.Sprintf("%s@%s", a.ID, v.Name)
			}
			jobs = append(jobs, runner.Job{ID: id, Run: func(io.Writer) error {
				res, err := a.ComputeCached(vo)
				out[vi][ai] = res
				return err
			}})
		}
	}
	return out, runner.Errs(pool.Run(jobs))
}
