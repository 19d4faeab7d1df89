// Package sweep is the experiment-campaign engine: it expands a declarative
// campaign spec (protocol × size grid × trials × seed policy) into
// independent jobs, executes them on a work-stealing worker pool with
// per-job deterministic RNG seeds, panic isolation, and bounded retries,
// streams completed jobs to an append-only JSONL journal so a killed
// campaign resumes instead of recomputing, and folds journal rows back into
// the distribution summaries the figure tables are built from.
//
// The engine exists because the paper's claims only separate empirically at
// large n and many trials: the Theorem 1 horizon ⌊log₃(2n+1)⌋−1 grows with
// size while random schedules stay flat, so the interesting regime is
// exactly the one a monolithic single-worker run cannot reach. Results are
// deterministic functions of (campaign seed, job coordinates) — never of
// worker count, scheduling order, or resume boundaries — so a resumed
// campaign is byte-identical to an uninterrupted one.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Spec declares a campaign: one protocol swept over a size grid, with a
// fixed number of trials per size. The spec is pure data — expanding it
// with Jobs is deterministic, so two processes holding the same spec agree
// on the job set and on every job's key and seed, which is what makes the
// journal's job keys meaningful across runs.
type Spec struct {
	// Name labels the campaign in diagnostics.
	Name string `json:"name"`
	// Proto names the registered protocol function to run per job.
	Proto string `json:"proto"`
	// Sizes is the network-size grid.
	Sizes []int `json:"sizes"`
	// Trials is the number of independent trials per size.
	Trials int `json:"trials"`
	// Horizon bounds the rounds of each trial.
	Horizon int `json:"horizon"`
	// Seed is the campaign seed; per-job seeds derive from it via JobSeed.
	Seed int64 `json:"seed"`
}

// Validate checks the spec is executable.
func (s *Spec) Validate() error {
	if s.Proto == "" {
		return fmt.Errorf("sweep: spec %q has no protocol", s.Name)
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("sweep: spec %q has an empty size grid", s.Name)
	}
	seen := make(map[int]bool, len(s.Sizes))
	for _, n := range s.Sizes {
		if n < 1 {
			return fmt.Errorf("sweep: spec %q has size %d < 1", s.Name, n)
		}
		if seen[n] {
			return fmt.Errorf("sweep: spec %q repeats size %d (job keys must be unique)", s.Name, n)
		}
		seen[n] = true
	}
	if s.Trials < 1 {
		return fmt.Errorf("sweep: spec %q needs trials >= 1, got %d", s.Name, s.Trials)
	}
	if s.Horizon < 1 {
		return fmt.Errorf("sweep: spec %q needs horizon >= 1, got %d", s.Name, s.Horizon)
	}
	return nil
}

// Jobs expands the spec into its independent jobs, in canonical order
// (sizes in grid order, trials ascending). Job keys embed the protocol,
// campaign seed, size, and trial, so a journal row written by one run
// identifies the same job in any other run of the same spec.
func (s *Spec) Jobs() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, len(s.Sizes)*s.Trials)
	for _, n := range s.Sizes {
		for t := 0; t < s.Trials; t++ {
			jobs = append(jobs, Job{
				Key:     fmt.Sprintf("%s/seed=%d/n=%d/t=%d", s.Proto, s.Seed, n, t),
				Proto:   s.Proto,
				N:       n,
				Trial:   t,
				Horizon: s.Horizon,
				Seed:    JobSeed(s.Seed, uint64(n), uint64(t)),
			})
		}
	}
	return jobs, nil
}

// ParseSpec decodes a JSON campaign spec, rejecting unknown fields so a
// typo in a spec file fails loudly instead of silently running defaults.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: bad spec: %w", err)
	}
	return s, s.Validate()
}

// LoadSpec reads a campaign spec: a built-in name (see Builtin) or a path
// to a JSON file.
func LoadSpec(nameOrPath string) (Spec, error) {
	if s, ok := Builtin(nameOrPath); ok {
		return s, nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return Spec{}, fmt.Errorf("sweep: spec %q is neither a built-in campaign nor a readable file: %w", nameOrPath, err)
	}
	return ParseSpec(data)
}

// Builtin returns a named built-in campaign:
//
//   - "figures": the Figure-reproduction grid — the S1 study's sizes and
//     trial count; experiment S1 runs this campaign.
//   - "smoke": a seconds-scale grid for CI and resume drills.
func Builtin(name string) (Spec, bool) {
	switch name {
	case "figures":
		return Spec{
			Name: "figures", Proto: ProtoMDBLCount,
			Sizes: []int{13, 40, 121, 364}, Trials: 40, Horizon: 10, Seed: 99,
		}, true
	case "smoke":
		return Spec{
			Name: "smoke", Proto: ProtoMDBLCount,
			Sizes: []int{5, 9}, Trials: 4, Horizon: 8, Seed: 7,
		}, true
	}
	return Spec{}, false
}
