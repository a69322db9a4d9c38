package llm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"htapxplain/internal/expert"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
)

// The frozen model below is Sim.Generate as one parser over the whole
// prompt text, before generation was split into Prefill and a question
// step: the answers the split must reproduce field for field. It shares
// only the unchanged helpers (fieldValue, parseResult, containsFactor,
// factorApplies, compose, fluent, answerFollowUp, the latency models).

type frozenKnowledge struct {
	winner      plan.Engine
	hasWinner   bool
	distance    float64
	explanation string
}

type frozenPrompt struct {
	guardrail bool
	userCtx   string
	knowledge []frozenKnowledge
	question  parsedQuestion
}

func frozenParsePrompt(text string) frozenPrompt {
	var p frozenPrompt
	p.guardrail = strings.Contains(text, "not allowed to compare")
	if i := strings.Index(text, prompt.MarkerUserCtx); i >= 0 {
		rest := text[i+len(prompt.MarkerUserCtx):]
		if j := strings.Index(rest, "==="); j >= 0 {
			p.userCtx = strings.TrimSpace(rest[:j])
		} else {
			p.userCtx = strings.TrimSpace(rest)
		}
	}
	rest := text
	for {
		i := strings.Index(rest, prompt.MarkerKnowledge)
		if i < 0 {
			break
		}
		rest = rest[i+len(prompt.MarkerKnowledge):]
		end := strings.Index(rest, "=== ")
		section := rest
		if end >= 0 {
			section = rest[:end]
		}
		k := frozenKnowledge{explanation: fieldValue(section, "explanation:")}
		if w, ok := parseResult(fieldValue(section, "result:")); ok {
			k.winner, k.hasWinner = w, true
		}
		if d, err := strconv.ParseFloat(fieldValue(section, "similarity_distance:"), 64); err == nil {
			k.distance = d
		}
		p.knowledge = append(p.knowledge, k)
		if end < 0 {
			break
		}
		rest = rest[end:]
	}
	if i := strings.Index(text, prompt.MarkerQuestion); i >= 0 {
		section := text[i+len(prompt.MarkerQuestion):]
		p.question = parsedQuestion{
			sql:    fieldValue(section, "query:"),
			tpPlan: fieldValue(section, "tp_plan:"),
			apPlan: fieldValue(section, "ap_plan:"),
		}
		p.question.lowerSQL = strings.ToLower(p.question.sql)
		p.question.lowerTP = strings.ToLower(p.question.tpPlan)
		p.question.lowerAP = strings.ToLower(p.question.apPlan)
		if w, ok := parseResult(fieldValue(section, "result:")); ok {
			p.question.winner, p.question.hasWinner = w, true
		}
	}
	return p
}

func frozenGenerate(m *Sim, text string) Response {
	p := frozenParsePrompt(text)
	var out string
	var none bool
	var followUp string
	if strings.Contains(text, prompt.MarkerFollowUp) {
		followUp = frozenFollowUpQuestion(text)
	}
	switch {
	case followUp != "":
		out = answerFollowUp(p.question, followUp)
	case len(p.knowledge) > 0:
		out, none = frozenGrounded(m, p)
	case strings.Contains(text, "return None"):
		out, none = "None", true
	default:
		out = frozenUngrounded(m, p)
	}
	return Response{Text: out, None: none, ThinkTime: thinkLatency(len(text)), GenTime: genLatency(len(out))}
}

func frozenFollowUpQuestion(text string) string {
	i := strings.LastIndex(text, prompt.MarkerFollowUp)
	if i < 0 {
		return ""
	}
	rest := text[i+len(prompt.MarkerFollowUp):]
	if j := strings.Index(rest, "==="); j >= 0 {
		rest = rest[:j]
	}
	return strings.TrimSpace(rest)
}

func frozenGrounded(m *Sim, p frozenPrompt) (string, bool) {
	if !p.question.hasWinner {
		return "None", true
	}
	scores := map[expert.Factor]float64{}
	for rank, k := range p.knowledge {
		w := 1.0 / float64(rank+1)
		w *= math.Exp(-k.distance / 0.08)
		if k.hasWinner && k.winner != p.question.winner {
			w *= 0.2
		}
		lowerExpl := strings.ToLower(k.explanation)
		for _, f := range allFactors {
			if containsFactor(lowerExpl, f) {
				scores[f] += w
			}
		}
	}
	type scored struct {
		f expert.Factor
		s float64
	}
	var applicable []scored
	for _, f := range allFactors {
		s, ok := scores[f]
		if !ok || s < 0.15 {
			continue
		}
		if factorApplies(f, p.question) {
			applicable = append(applicable, scored{f, s})
		}
	}
	if len(applicable) == 0 {
		return "None", true
	}
	for i := 0; i < len(applicable); i++ {
		for j := i + 1; j < len(applicable); j++ {
			if applicable[j].s > applicable[i].s {
				applicable[i], applicable[j] = applicable[j], applicable[i]
			}
		}
	}
	if applicable[0].s < m.cfg.MinGroundingWeight {
		return "None", true
	}
	primary := applicable[0].f
	var secondary []expert.Factor
	for _, a := range applicable[1:] {
		if len(secondary) == 3 {
			break
		}
		secondary = append(secondary, a.f)
	}
	if p.question.winner == plan.AP &&
		strings.Contains(p.question.lowerSQL, "group by") &&
		scores[expert.FactorAggregationPushdown] > 0 &&
		primary != expert.FactorAggregationPushdown &&
		!hasFactor(secondary, expert.FactorAggregationPushdown) && len(secondary) < 3 {
		secondary = append(secondary, expert.FactorAggregationPushdown)
	}
	return m.compose(p.question, primary, secondary), false
}

func frozenUngrounded(m *Sim, p frozenPrompt) string {
	q := p.question
	sql, tp, ap := q.lowerSQL, q.lowerTP, q.lowerAP
	winner := plan.AP
	if q.hasWinner {
		winner = q.winner
	} else {
		aggregate := strings.Contains(sql, "count(") || strings.Contains(sql, "sum(") ||
			strings.Contains(sql, "avg(") || strings.Contains(sql, "group by")
		if !aggregate && strings.Contains(tp, "index") && hash01(m.cfg.Seed+1, q.sql) < 0.6 {
			winner = plan.TP
		}
	}
	w, l := "AP", "TP"
	if winner == plan.TP {
		w, l = "TP", "AP"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "The %s engine is faster in this case because ", w)
	if winner == plan.AP {
		b.WriteString("it utilizes column-oriented storage, which efficiently scans large tables by only reading the required columns. ")
		if strings.Contains(ap, "hash join") {
			b.WriteString("Additionally, the AP engine uses hash joins, which are well-suited for joining large datasets. ")
		}
	} else {
		b.WriteString("its row-oriented storage retrieves complete rows directly")
		if strings.Contains(tp, "index") {
			b.WriteString(" and it can use the index")
		}
		b.WriteString(". ")
	}
	mentionsIndex := strings.Contains(strings.ToLower(p.userCtx), "index") || strings.Contains(p.question.lowerTP, "index")
	if hasFunctionWrappedPredicate(sql) && mentionsIndex &&
		hash01(m.cfg.Seed+2, q.sql) < m.cfg.IndexMisattributionRate {
		b.WriteString("Both engines likely benefit from the index on the filtered column; ")
		fmt.Fprintf(&b, "the %s engine's storage allows it to access and filter that column with less overhead. ", w)
	}
	costRate := m.cfg.CostComparisonRateNoGuardrail
	if p.guardrail {
		costRate = m.cfg.CostComparisonRate
	}
	if hash01(m.cfg.Seed+3, q.sql) < costRate {
		fmt.Fprintf(&b, "Comparing the costs, the %s plan shows a lower total cost than the %s plan, supporting this conclusion. ", w, l)
	}
	if strings.Contains(sql, "offset") {
		b.WriteString("The OFFSET clause may or may not be large enough to impact plan efficiency. ")
	}
	fmt.Fprintf(&b, "In contrast, the %s engine's plan characteristics make table access more costly, so the %s engine delivers better performance for this query.", l, w)
	return b.String()
}

// fuzzPhrases is every factor's marker phrases, the vocabulary the fuzzed
// explanations are built from.
var fuzzPhrases = func() []string {
	var ps []string
	for _, f := range allFactors {
		ps = append(ps, expert.MarkerPhrases(f)...)
	}
	return ps
}()

// Surface features the fuzzed questions are built from: SQL shapes and
// plans that switch each factor's applicability on and off, and follow-up
// topics that reach each of answerFollowUp's answers.
var (
	fuzzSQL = []string{
		"SELECT COUNT(*) FROM customer, orders WHERE SUBSTRING(c_phone, 1, 2) IN ('20') AND o_custkey = c_custkey",
		"SELECT o_orderkey FROM orders ORDER BY o_orderdate LIMIT 10 OFFSET 5000",
		"SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
		"SELECT * FROM lineitem WHERE l_orderkey = 7",
		"select upper(c_name) from customer order by c_name",
	}
	fuzzPlans = []string{
		`{"Node Type":"Table Scan"}`,
		`{"Node Type":"Nested loop inner join","Plans":[{"Node Type":"Index Scan"}]}`,
		`{"Node Type":"Limit","Plans":[{"Node Type":"Index Scan","Scan Direction":"index order"}]}`,
		`{"Node Type":"Aggregate","Plans":[{"Node Type":"Inner hash join"}]}`,
		`{"Node Type":"Sort"}`,
	}
	fuzzTopics = []string{"", "why is the index on c_phone not used?", "what does the OFFSET cost?",
		"can I compare the cost numbers?", "hash join or nested loop?", "why columnar storage?", "tell me more"}
)

// FuzzPrefillMatchesMonolithic: for any retrieved knowledge (0–3 hits,
// their winners and distances, explanations built from the factors' marker
// phrases), RAG and guardrail settings, user context, question and 0–2
// follow-up turns, Prefill(prefix).Generate(question) and Generate(full)
// both equal the frozen whole-prompt model, field for field. It holds for
// every prompt whose free text — SQL, user context, follow-up questions —
// has no section marker ("===") and no instruction sentence: those the
// frozen model misread (TestMarkersInSQLAreText).
func FuzzPrefillMatchesMonolithic(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint64(0x0123), 0.01, true, true, "", uint8(0), "", uint8(0), uint8(0x31), true, 12.3, uint8(0))
	f.Add(uint8(3), uint8(6), uint64(0xfedcba987654321), 0.2, true, true, "an index has been created on c_phone",
		uint8(1), " AND x = 'y'", uint8(2), uint8(0x13), false, 2.0, uint8(1))
	f.Add(uint8(0), uint8(0), uint64(0), 0.0, true, true, "", uint8(2), "", uint8(0), uint8(0x02), true, 1.0, uint8(0))
	f.Add(uint8(0), uint8(0), uint64(0), 0.0, false, false, "an additional index has been created on the c_phone column",
		uint8(0), "", uint8(0), uint8(0x00), true, 7.5, uint8(0))
	f.Add(uint8(1), uint8(1), uint64(1<<40), math.NaN(), true, false, "ctx\nline two", uint8(3), "\t-- c", uint8(1),
		uint8(0x44), false, math.Inf(1), uint8(2))
	f.Add(uint8(2), uint8(3), uint64(0xaaaa5555), -0.04, true, true, "", uint8(4), "", uint8(2), uint8(0x24), false, 0.0, uint8(5))
	f.Add(uint8(3), uint8(3), uint64(0xaaaa5555), -0.04, true, true, "", uint8(4), "", uint8(0), uint8(0x08), false, 0.0, uint8(5))
	f.Add(uint8(3), uint8(2), uint64(1147797409030816492), 0.1, false, true, "0", uint8(1), "0", uint8(0), uint8(0x56), false, 0.25, uint8(1))
	f.Fuzz(func(t *testing.T, nhits, winners uint8, phrases uint64, dist float64, rag, guardrail bool,
		userCtx string, shape uint8, sqlTail string, turns, plans uint8, apWins bool, speedup float64, topic uint8) {
		sql := fuzzSQL[int(shape)%len(fuzzSQL)] + sqlTail
		followUp := fuzzTopics[int(topic)%len(fuzzTopics)]
		for _, s := range []string{sql, strings.Join(strings.Fields(sql), " "), userCtx} {
			if strings.Contains(s, "===") || strings.Contains(s, "not allowed to compare") || strings.Contains(s, "return None") {
				t.Skip("free text with a marker or an instruction sentence")
			}
		}

		b := prompt.NewBuilder("customer(15000 rows): c_custkey, c_phone")
		b.IncludeGuardrail, b.IncludeRAG, b.UserContext = guardrail, rag, userCtx
		var hits []knowledge.Hit
		for i := 0; i < int(nhits%4); i++ {
			var expl []string
			for j, p := range fuzzPhrases {
				if phrases>>((j+13*i)%64)&1 != 0 {
					expl = append(expl, p)
				}
			}
			w := plan.TP
			if winners>>i&1 != 0 {
				w = plan.AP
			}
			hits = append(hits, knowledge.Hit{Entry: &knowledge.Entry{
				SQL: "historical query", TPPlanJSON: "{}", APPlanJSON: "{}", Winner: w, Speedup: 3,
				Explanation: "Experts note: " + strings.Join(expl, ", ") + ".",
			}, Distance: dist + 0.05*float64(i)})
		}
		winner := plan.TP
		if apWins {
			winner = plan.AP
		}
		prefix := b.Prefix(hits)
		question := prompt.Compose("", prompt.Question{
			SQL: sql, TPPlanJSON: fuzzPlans[int(plans)%len(fuzzPlans)], APPlanJSON: fuzzPlans[int(plans>>4)%len(fuzzPlans)],
			Winner: winner, Speedup: speedup,
		})
		// the turns after the question, as Conversation.Ask appends them
		for i := 0; i < int(turns%3); i++ {
			question += "\n" + prompt.MarkerPrevAnswer + "\nan earlier answer\n" +
				prompt.MarkerFollowUp + "\n" + fuzzTopics[(int(topic)+i+1)%len(fuzzTopics)] + " " + followUp + "\n"
		}

		for _, m := range []*Sim{Doubao(), ChatGPT4()} {
			want := frozenGenerate(m, prefix+question)
			split, err := m.Prefill(prefix).Generate(question)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := m.Generate(prefix + question)
			if err != nil {
				t.Fatal(err)
			}
			if split != want || whole != want {
				t.Fatalf("%s:\nfrozen  %+v\nprefill %+v\nwhole   %+v\nprompt:\n%s", m.Name(), want, split, whole, prefix+question)
			}
		}
	})
}
