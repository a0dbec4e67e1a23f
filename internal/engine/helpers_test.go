package engine

import (
	"math/rand"

	"xgrammar/internal/backend"
	"xgrammar/internal/backend/simllm"
	"xgrammar/internal/grammar"
	"xgrammar/internal/jsonschema"
	"xgrammar/internal/tokenizer"
)

func compileSchema(schema []byte) (*grammar.Grammar, error) {
	return jsonschema.Compile(schema, jsonschema.Options{})
}

func newRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// testModel is the teacher-forced model backend over the fast test profile.
func testModel(tok *tokenizer.Tokenizer) backend.Backend {
	return simllm.NewTeacher(tok, testProfile(), simllm.TeacherOptions{})
}
