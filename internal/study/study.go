// Package study simulates the paper's human-subject study (§VI-C) with a
// deterministic cognitive model of participants standing in for the real
// ones. The protocol is the paper's:
// two equal groups receive the same query and context; group A gets plan
// details + the LLM explanation up front, group B first works from plan
// details alone, submits an interpretation, then sees the LLM explanation
// and may revise. Measured: time to stated understanding, correctness of
// the submitted interpretation, and 0-10 difficulty ratings for the raw
// plans and for the LLM text.
//
// The cognitive model: each participant has a skill level s ∈ [0.2, 1];
// reading/analysis time scales with material complexity and inversely
// with skill; the probability of correctly inferring the cause from raw
// plans alone grows with skill; a correct accessible explanation makes
// everyone correct (the paper observed exactly this). Constants are
// calibrated once against the paper's aggregate numbers — per-query
// results are then emergent from the materials' actual complexity.
package study

import (
	"math/rand"

	"htapxplain/internal/plan"
)

// Materials is what participants are shown.
type Materials struct {
	// PlanNodes is the total operator count across both plans.
	PlanNodes int
	// PlanJSONChars is the combined length of both pretty-printed plans.
	PlanJSONChars int
	// ExplanationChars is the LLM explanation length.
	ExplanationChars int
	// ExplanationAccurate states whether the explanation is correct
	// (graded by the expert oracle); inaccurate explanations cannot
	// repair wrong initial understandings.
	ExplanationAccurate bool
}

// MaterialsFromPair derives study materials from a plan pair and the
// generated explanation.
func MaterialsFromPair(p *plan.Pair, explanation string, accurate bool) Materials {
	return Materials{
		PlanNodes:           p.TP.Count() + p.AP.Count(),
		PlanJSONChars:       len(p.TP.ExplainIndentJSON()) + len(p.AP.ExplainIndentJSON()),
		ExplanationChars:    len(explanation),
		ExplanationAccurate: accurate,
	}
}

// Config controls the simulated study.
type Config struct {
	// Participants is the total count, split evenly into two groups.
	Participants int
	// Seed drives the participant population.
	Seed int64
}

// DefaultConfig mirrors a small human study.
func DefaultConfig() Config { return Config{Participants: 24, Seed: 5} }

// Outcome aggregates the study results (the paper's reported quantities).
type Outcome struct {
	// Group A: received the LLM explanation from the start.
	GroupAMeanMinutes float64
	GroupACorrectRate float64
	// Group B: plans only first, then the LLM explanation.
	GroupBMeanMinutes        float64
	GroupBInitialCorrectRate float64
	GroupBCorrectAfterLLM    float64
	// Difficulty ratings, 0 (easiest) .. 10 (hardest).
	DifficultyPlans float64
	DifficultyLLM   float64
}

// participant is one simulated subject.
type participant struct {
	skill float64 // 0.2 (novice) .. 1.0 (expert)
}

// population generates the deterministic participant pool.
func population(cfg Config) []participant {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]participant, cfg.Participants)
	for i := range out {
		out[i] = participant{skill: 0.2 + 0.8*rng.Float64()}
	}
	return out
}

// Calibrated cognitive-model constants (minutes).
const (
	baseAnalysisMin  = 3.0  // orientation cost of raw plan analysis
	perNodeMin       = 0.25 // deep-reading cost per plan operator
	skimFraction     = 0.30 // group A only skims the plans
	baseExplainMin   = 0.8  // reading the natural-language explanation
	perExplCharMin   = 1.0 / 1500
	correctBase      = 0.38 // chance a novice decodes raw plans correctly
	correctSkillGain = 0.50
	difficultyPlanHi = 10.4 // novice-end difficulty of raw plans
	difficultyPlanLo = 6.4  // expert-end
	difficultyLLMHi  = 4.6
	difficultyLLMLo  = 1.4
)

// Run executes the simulated protocol and aggregates the outcome.
func Run(cfg Config, m Materials) Outcome {
	people := population(cfg)
	half := len(people) / 2
	groupA, groupB := people[:half], people[half:]
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	var out Outcome
	// struggle converts skill into a time multiplier (novices ~1.44x).
	struggle := func(s float64) float64 { return 1.6 - 0.8*s }

	planAnalysisMin := baseAnalysisMin + float64(m.PlanNodes)*perNodeMin
	explReadMin := baseExplainMin + float64(m.ExplanationChars)*perExplCharMin

	var aCorrect int
	for _, p := range groupA {
		t := (planAnalysisMin*skimFraction + explReadMin) * struggle(p.skill)
		out.GroupAMeanMinutes += t
		// an accessible accurate explanation lets every participant
		// state the correct reason (the paper's observed result)
		if m.ExplanationAccurate || rng.Float64() < correctBase+correctSkillGain*p.skill {
			aCorrect++
		}
	}
	out.GroupAMeanMinutes /= float64(len(groupA))
	out.GroupACorrectRate = float64(aCorrect) / float64(len(groupA))

	var bInitial, bAfter int
	var diffPlans, diffLLM float64
	for _, p := range groupB {
		t := planAnalysisMin * struggle(p.skill)
		out.GroupBMeanMinutes += t
		correct := rng.Float64() < correctBase+correctSkillGain*p.skill
		if correct {
			bInitial++
		}
		if correct || m.ExplanationAccurate {
			bAfter++ // wrong readers corrected themselves after the LLM text
		}
		diffPlans += difficultyPlanHi - (difficultyPlanHi-difficultyPlanLo)*p.skill
		diffLLM += difficultyLLMHi - (difficultyLLMHi-difficultyLLMLo)*p.skill
	}
	n := float64(len(groupB))
	out.GroupBMeanMinutes /= n
	out.GroupBInitialCorrectRate = float64(bInitial) / n
	out.GroupBCorrectAfterLLM = float64(bAfter) / n
	out.DifficultyPlans = clampRating(diffPlans / n)
	out.DifficultyLLM = clampRating(diffLLM / n)
	return out
}

func clampRating(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 10 {
		return 10
	}
	return v
}
