package expert

import (
	"strings"
	"testing"

	"htapxplain/internal/htap"
	"htapxplain/internal/plan"
)

func testSystem(t *testing.T) (*htap.System, *Oracle) {
	t.Helper()
	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatalf("htap.New: %v", err)
	}
	return sys, NewOracle(sys)
}

func judgeSQL(t *testing.T, sys *htap.System, o *Oracle, sql string) Truth {
	t.Helper()
	res, err := sys.Model(sql)
	if err != nil {
		t.Fatalf("Model(%q): %v", sql, err)
	}
	truth, err := o.Judge(res)
	if err != nil {
		t.Fatalf("Judge: %v", err)
	}
	return truth
}

func TestJudgeExample1(t *testing.T) {
	sys, o := testSystem(t)
	truth := judgeSQL(t, sys, o, htap.Example1SQL)
	if truth.Winner != plan.AP {
		t.Fatalf("winner = %v", truth.Winner)
	}
	if truth.Primary != FactorHashJoinAdvantage {
		t.Errorf("primary = %v, want hash-join-advantage", truth.Primary)
	}
	if !truth.NoIndexUsable {
		t.Error("SUBSTRING predicate means no usable index")
	}
	if truth.Speedup < 2 {
		t.Errorf("speedup = %v", truth.Speedup)
	}
	found := false
	for _, f := range truth.Secondary {
		if f == FactorNoUsableIndex {
			found = true
		}
	}
	if !found {
		t.Errorf("no-usable-index missing from secondary: %v", truth.Secondary)
	}
}

func TestJudgePointLookup(t *testing.T) {
	sys, o := testSystem(t)
	truth := judgeSQL(t, sys, o, "SELECT o_totalprice FROM orders WHERE o_orderkey = 7")
	if truth.Winner != plan.TP {
		t.Fatalf("winner = %v", truth.Winner)
	}
	if truth.Primary != FactorIndexPointLookup {
		t.Errorf("primary = %v, want index-point-lookup", truth.Primary)
	}
}

func TestJudgeIndexOrderTopN(t *testing.T) {
	sys, o := testSystem(t)
	truth := judgeSQL(t, sys, o, "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5")
	if truth.Winner != plan.TP || truth.Primary != FactorIndexOrderTopN {
		t.Errorf("truth = %+v", truth)
	}
}

func TestJudgeBigAggregation(t *testing.T) {
	sys, o := testSystem(t)
	truth := judgeSQL(t, sys, o, "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag")
	if truth.Winner != plan.AP {
		t.Fatalf("winner = %v", truth.Winner)
	}
	if truth.Primary != FactorLargeScanVolume && truth.Primary != FactorAggregationPushdown {
		t.Errorf("primary = %v", truth.Primary)
	}
}

func TestComposeExpertContainsMarkers(t *testing.T) {
	truth := Truth{
		Winner:  plan.AP,
		Primary: FactorHashJoinAdvantage,
		Secondary: []Factor{
			FactorNoUsableIndex, FactorColumnarScan,
		},
		NoIndexUsable: true,
	}
	text := ComposeExpert(truth)
	lower := strings.ToLower(text)
	if !strings.Contains(lower, "ap is faster") {
		t.Errorf("missing winner claim: %q", text)
	}
	for _, f := range truth.AllFactors() {
		matched := false
		for _, m := range MarkerPhrases(f) {
			if strings.Contains(lower, m) {
				matched = true
			}
		}
		if !matched {
			t.Errorf("expert text misses markers for %v: %q", f, text)
		}
	}
}

func TestAllFactorsHaveMarkersAndSentences(t *testing.T) {
	factors := []Factor{
		FactorHashJoinAdvantage, FactorNoUsableIndex, FactorIndexPointLookup,
		FactorIndexOrderTopN, FactorColumnarScan, FactorLargeScanVolume,
		FactorStartupOverhead, FactorSortVsIndexOrder, FactorDeepOffset,
		FactorAggregationPushdown,
	}
	for _, f := range factors {
		if len(MarkerPhrases(f)) == 0 {
			t.Errorf("factor %v has no marker phrases", f)
		}
		sentence := factorSentence(f, plan.AP, "c_phone")
		matched := false
		for _, m := range MarkerPhrases(f) {
			if strings.Contains(strings.ToLower(sentence), m) {
				matched = true
			}
		}
		if !matched {
			t.Errorf("factor sentence for %v does not contain its own markers: %q", f, sentence)
		}
	}
}

func TestGradeAccurate(t *testing.T) {
	truth := Truth{Winner: plan.AP, Primary: FactorHashJoinAdvantage}
	text := "AP is faster because it uses a hash join while TP uses a nested loop."
	g := GradeExplanation(text, truth)
	if g.Verdict != VerdictAccurate || !g.MentionsPrimary || !g.CorrectWinner {
		t.Errorf("grade = %+v", g)
	}
}

func TestGradeNone(t *testing.T) {
	for _, text := range []string{"None", "none", " None.  ", ""} {
		if g := GradeExplanation(text, Truth{}); g.Verdict != VerdictNone {
			t.Errorf("GradeExplanation(%q) = %v, want none", text, g.Verdict)
		}
	}
}

func TestGradeMissingPrimaryIsLessPrecise(t *testing.T) {
	truth := Truth{Winner: plan.AP, Primary: FactorHashJoinAdvantage}
	text := "AP is faster because column-oriented storage reads fewer bytes."
	g := GradeExplanation(text, truth)
	if g.Verdict != VerdictLessPrecise {
		t.Errorf("grade = %v, want less-precise", g.Verdict)
	}
}

func TestGradeWrongWinnerIsFalseClaim(t *testing.T) {
	truth := Truth{Winner: plan.AP, Primary: FactorColumnarScan}
	text := "TP is faster because its columnar engine... wait, column-oriented storage helps."
	g := GradeExplanation(text, truth)
	if len(g.FalseClaims) == 0 {
		t.Errorf("wrong winner not flagged: %+v", g)
	}
	if g.Verdict == VerdictAccurate {
		t.Error("wrong winner cannot be accurate")
	}
}

func TestGradeCostComparisonIsFalseClaim(t *testing.T) {
	truth := Truth{Winner: plan.AP, Primary: FactorColumnarScan}
	text := "AP is faster; its column-oriented storage helps, and comparing the costs shows AP's plan is cheaper."
	g := GradeExplanation(text, truth)
	if len(g.FalseClaims) == 0 {
		t.Error("cost comparison not flagged")
	}
}

func TestGradeIndexMisattributionOnlyWhenNoIndexUsable(t *testing.T) {
	text := "AP is faster with column-oriented storage; both engines benefit from the index."
	withNoIndex := GradeExplanation(text, Truth{Winner: plan.AP, Primary: FactorColumnarScan, NoIndexUsable: true})
	if len(withNoIndex.FalseClaims) == 0 {
		t.Error("index claim should be flagged when no index is usable")
	}
	withIndex := GradeExplanation(text, Truth{Winner: plan.AP, Primary: FactorColumnarScan, NoIndexUsable: false})
	if len(withIndex.FalseClaims) != 0 {
		t.Errorf("index claim should be fine when an index is usable: %v", withIndex.FalseClaims)
	}
}

func TestGradeCountsSecondaryHits(t *testing.T) {
	truth := Truth{Winner: plan.AP, Primary: FactorHashJoinAdvantage,
		Secondary: []Factor{FactorColumnarScan, FactorLargeScanVolume}}
	text := "AP is faster: hash join beats nested loop; columnar storage reads only needed columns; the data volume is large."
	g := GradeExplanation(text, truth)
	if g.SecondaryHits != 2 {
		t.Errorf("secondary hits = %d, want 2", g.SecondaryHits)
	}
}

func TestVerdictStrings(t *testing.T) {
	if VerdictAccurate.String() != "accurate" || VerdictLessPrecise.String() != "less-precise" || VerdictNone.String() != "none" {
		t.Error("verdict strings wrong")
	}
}

func TestExpertExplanationGradesAccurateAgainstItself(t *testing.T) {
	// self-consistency: the oracle's own explanation must grade accurate
	sys, o := testSystem(t)
	for _, sql := range []string{
		htap.Example1SQL,
		"SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5",
		"SELECT o_totalprice FROM orders WHERE o_orderkey = 7",
		"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag",
	} {
		truth := judgeSQL(t, sys, o, sql)
		text := o.Explain(truth)
		if g := GradeExplanation(text, truth); g.Verdict != VerdictAccurate {
			t.Errorf("expert text graded %v for %q:\n%s\nfalse claims: %v",
				g.Verdict, sql, text, g.FalseClaims)
		}
	}
}
