// Package llm defines the language-model interface the explainer steers,
// plus offline *simulated* pre-trained models ("doubao-sim",
// "chatgpt4-sim") standing in for the paper's proprietary LLM APIs. The
// simulated models consume the rendered prompt text exactly as a real LLM
// would: they ground their
// answer in the retrieved KNOWLEDGE sections when present (RAG mode) and
// fall back to surface-feature priors with the paper's documented
// un-grounded failure modes (cost comparison, index misattribution,
// column-storage overemphasis) when knowledge is absent. Accuracy is
// therefore *emergent from retrieval quality*, which is exactly the
// property the paper's experiments measure.
//
// Like a serving LLM that caches a shared prompt prefix, a model reads a
// prompt in two steps: Prefill reads everything before the QUESTION
// section — instructions, user context, retrieved knowledge — once, and
// the prefill's Generate reads only the question. The explainer keeps one
// prefill per retrieval, so every question about a template shares it;
// Generate on a whole prompt is the two steps in a row.
package llm

import (
	"hash/fnv"
	"time"
)

// Response is one model generation.
type Response struct {
	Text string
	// None reports the model declined ("If the KNOWLEDGE does not
	// contain the facts ... return None").
	None bool
	// ThinkTime and GenTime model the paper's reported latency envelope
	// (§VI-B: thinking ≤ 2 s, generation ≈ 10 s). They are modeled, not
	// slept, so experiments run fast.
	ThinkTime time.Duration
	GenTime   time.Duration
}

// Model is a pre-trained language model.
type Model interface {
	Name() string
	// Generate answers a whole prompt.
	Generate(prompt string) (Response, error)
	// Prefill reads a prompt's prefix, everything before its QUESTION
	// section, so that questions asked after the same prefix do not pay
	// for reading it again: Generate(prefix + question) equals
	// Prefill(prefix).Generate(question).
	Prefill(prefix string) Prefill
}

// Prefill is a model's reading of a prompt prefix. It is immutable and safe
// for concurrent use.
type Prefill interface {
	// Generate answers the QUESTION section, and any follow-up turns
	// after it, asked after the prefix.
	Generate(question string) (Response, error)
}

// hash01 maps a string deterministically into [0,1) — the simulated
// models' source of "sampling" randomness.
func hash01(seed int64, s string) float64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(s))
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

// thinkLatency models prompt-processing time: longer prompts (more
// retrieved knowledge) take longer, capped at the paper's ≈2 s.
func thinkLatency(promptLen int) time.Duration {
	t := 300*time.Millisecond + time.Duration(promptLen/16)*time.Microsecond*8
	if t > 2*time.Second {
		t = 2 * time.Second
	}
	return t
}

// genLatency models token generation: ≈10 s for a typical explanation.
func genLatency(textLen int) time.Duration {
	t := 5*time.Second + time.Duration(textLen)*12*time.Millisecond
	if t > 16*time.Second {
		t = 16 * time.Second
	}
	return t
}
