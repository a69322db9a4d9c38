package explain

import (
	"fmt"
	"strings"

	"htapxplain/internal/llm"
	"htapxplain/internal/prompt"
)

// Conversation is the paper's follow-up interface (§VI-B): "an additional
// advantage of using an LLM is its flexibility in offering a
// conversational interface that allows follow-up questions." A
// Conversation keeps the original explanation context and lets the user
// ask in-depth follow-ups (e.g. why the predicate on customer does not
// benefit from the index on c_phone).
type Conversation struct {
	ex      *Explainer
	root    *Explanation
	history []Turn
}

// Turn is one follow-up exchange.
type Turn struct {
	Question string
	Answer   llm.Response
}

// Converse starts a conversation from an explanation.
func (e *Explainer) Converse(root *Explanation) *Conversation {
	return &Conversation{ex: e, root: root}
}

// History returns the past turns.
func (c *Conversation) History() []Turn { return c.history }

// Root returns the originating explanation.
func (c *Conversation) Root() *Explanation { return c.root }

// Ask sends a follow-up question grounded in the original prompt, the
// generated explanation and the prior turns.
func (c *Conversation) Ask(question string) (llm.Response, error) {
	var sb strings.Builder
	sb.WriteString(c.root.prefix)
	sb.WriteString(c.root.question)
	sb.WriteString("\n")
	sb.WriteString(prompt.MarkerPrevAnswer)
	sb.WriteString("\n")
	sb.WriteString(c.root.Response.Text)
	sb.WriteString("\n")
	for _, t := range c.history {
		sb.WriteString(prompt.MarkerFollowUp)
		sb.WriteString("\n")
		sb.WriteString(t.Question)
		sb.WriteString("\n")
		sb.WriteString(prompt.MarkerPrevAnswer)
		sb.WriteString("\n")
		sb.WriteString(t.Answer.Text)
		sb.WriteString("\n")
	}
	sb.WriteString(prompt.MarkerFollowUp)
	sb.WriteString("\n")
	sb.WriteString(question)
	sb.WriteString("\n")

	resp, err := c.ex.Model.Generate(sb.String())
	if err != nil {
		return llm.Response{}, fmt.Errorf("explain: follow-up: %w", err)
	}
	c.history = append(c.history, Turn{Question: question, Answer: resp})
	return resp, nil
}
