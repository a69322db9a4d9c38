package explain

import (
	"strings"
	"testing"

	"htapxplain/internal/htap"
	"htapxplain/internal/llm"
)

func TestFollowUpIndexQuestion(t *testing.T) {
	// the paper's §VI-B example: the user asks why the predicate on the
	// customer table does not benefit from the index on c_phone
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), Options{
		K: 2, UseRAG: true, IncludeGuardrail: true,
		UserContext: "an additional index has been created on the c_phone column",
	})
	root := explainSQL(t, sys, ex, htap.Example1SQL)
	conv := ex.Converse(root)
	resp, err := conv.Ask("Why does the predicate on the customer table not benefit from the index on c_phone?")
	if err != nil {
		t.Fatal(err)
	}
	lower := strings.ToLower(resp.Text)
	if !strings.Contains(lower, "function") || !strings.Contains(lower, "index") {
		t.Errorf("follow-up should explain function-disabled indexes: %q", resp.Text)
	}
	if len(conv.History()) != 1 {
		t.Errorf("history length = %d", len(conv.History()))
	}
}

func TestFollowUpTopics(t *testing.T) {
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	root := explainSQL(t, sys, ex, htap.Example1SQL)
	conv := ex.Converse(root)
	cases := []struct {
		question string
		wants    []string
	}{
		{"Is a large OFFSET expensive?", []string{"offset", "discard"}},
		{"Why can't I compare the plan costs?", []string{"not comparable"}},
		{"When is a nested loop join better than a hash join?", []string{"point lookup", "hash table"}},
		{"What's the difference between the storage formats?", []string{"row-oriented", "column-oriented"}},
	}
	for _, c := range cases {
		resp, err := conv.Ask(c.question)
		if err != nil {
			t.Fatal(err)
		}
		lower := strings.ToLower(resp.Text)
		for _, w := range c.wants {
			if !strings.Contains(lower, w) {
				t.Errorf("follow-up %q missing %q: %q", c.question, w, resp.Text)
			}
		}
	}
	if len(conv.History()) != len(cases) {
		t.Errorf("history length = %d, want %d", len(conv.History()), len(cases))
	}
	if conv.Root() != root {
		t.Error("Root() should return the originating explanation")
	}
}

func TestFollowUpGenericFallback(t *testing.T) {
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	root := explainSQL(t, sys, ex, htap.Example1SQL)
	resp, err := ex.Converse(root).Ask("tell me a story about penguins")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text == "" || resp.None {
		t.Error("generic fallback should still produce a grounded reply")
	}
	if !strings.Contains(strings.ToLower(resp.Text), "ap engine wins") {
		t.Errorf("fallback should reference the discussed query's outcome: %q", resp.Text)
	}
}
