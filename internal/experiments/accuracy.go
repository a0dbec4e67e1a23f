package experiments

import (
	"fmt"
	"math/rand"

	"xgrammar/internal/baselines"
	"xgrammar/internal/builtin"
	"xgrammar/internal/engine"
	"xgrammar/internal/jsonschema"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/workload"
)

// validateAgainst reports whether text is a complete match of the grammar.
func validateAgainst(p *pda.PDA, text string) bool {
	m := matcher.New(matcher.NewExec(p), 0)
	return m.Advance([]byte(text)) && m.CanTerminate()
}

// Tab4 reproduces Table 4: syntactic accuracy of structured-generation
// tasks with and without XGrammar. The unconstrained teacher-forced model
// exhibits the paper's failure modes (explanatory prose around the payload,
// wrong value types); the constrained run masks those tokens out.
func (s *Suite) Tab4() *Table {
	t := &Table{
		ID:     "tab4",
		Title:  "Syntactic accuracy with and without XGrammar",
		Paper:  "function calling 62% -> 100%; XML code generation 80% -> 100%",
		Header: []string{"task", "accuracy w/o XGrammar", "accuracy w/ XGrammar"},
	}
	n := 50
	if s.Quick {
		n = 12
	}
	rng := rand.New(rand.NewSource(404))

	// Function calling: schema-guided JSON generation; one grammar per task.
	tasks := workload.SchemaTasks(n, 777)
	fcOK, fcOKConstrained := 0, 0
	for _, task := range tasks {
		g, err := jsonschema.Compile(task.Schema, jsonschema.Options{})
		if err != nil {
			panic("experiments: " + err.Error())
		}
		p, err := pda.Compile(g, pda.AllOptimizations)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		noisy, _ := llmsim.MakeNoisy(task.Instance, llmsim.FunctionCallingNoise(), rng)
		if validateAgainst(p, noisy) {
			fcOK++
		}
		backend := xgBackend(p, maskcache.Build(p, s.Tok(), maskcacheOptions()), s)
		if s.constrainedOutputValid(p, backend, task.Instance) {
			fcOKConstrained++
		}
	}
	t.Add("Function calling",
		fmt.Sprintf("%d%%", 100*fcOK/len(tasks)),
		fmt.Sprintf("%d%%", 100*fcOKConstrained/len(tasks)))

	// XML code generation: one shared grammar.
	xmlDocs := workload.XMLDocs(n, 778)
	xmlPDA := s.PDA("tab4-xml", builtin.XML(), pda.AllOptimizations)
	xmlBackend := xgBackend(xmlPDA, s.Cache("tab4-xml", xmlPDA, maskcacheOptions()), s)
	xmlOK, xmlOKConstrained := 0, 0
	for _, doc := range xmlDocs {
		noisy, _ := llmsim.MakeNoisy(doc, llmsim.XMLGenerationNoise(), rng)
		if validateAgainst(xmlPDA, noisy) {
			xmlOK++
		}
		if s.constrainedOutputValid(xmlPDA, xmlBackend, doc) {
			xmlOKConstrained++
		}
	}
	t.Add("XML code generation",
		fmt.Sprintf("%d%%", 100*xmlOK/len(xmlDocs)),
		fmt.Sprintf("%d%%", 100*xmlOKConstrained/len(xmlDocs)))
	t.Note(clockNone + " — accuracy counts only; the constrained runs go through the modelled engine but no time is reported")
	t.Note("unconstrained outputs wrap payloads in prose or corrupt value types (llmsim noise); constrained decoding masks those continuations out")
	return t
}

// constrainedOutputValid runs the constrained engine on the clean target
// and validates the produced text — end to end, not by assumption.
func (s *Suite) constrainedOutputValid(p *pda.PDA, backend *baselines.XGBackend, target string) bool {
	met, outs, err := engine.Run(engine.Config{
		Model:    s.Model(llmsim.H100Llama8B()),
		Mode:     engine.Overlap,
		Grammar:  backend,
		Tok:      s.Tok(),
		MaxSteps: s.FastStepCap,
	}, llmsim.NewRequests([]string{target}, s.PromptTokens))
	if err != nil || met.OutputTokens == 0 {
		return false
	}
	return validateAgainst(p, outs[0])
}
