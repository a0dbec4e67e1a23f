// Serving: the continuous-batching runtime of §3.5 driven with real
// concurrency. "Requests" arrive over time and join the live batch as
// pooled Sessions (grammar resolution is a compiled-grammar cache hit after
// the first request for each grammar); every decode round launches one
// batched "GPU" step (a timer standing in for the forward pass) and fills
// the whole batch's masks on this goroutine while it runs, synchronizing before sampling exactly as in Figure 8; finished
// sequences leave mid-run and their grammar state is recycled for the next
// arrival. Jump-forward continuations (Appendix B) are inserted for free.
package main

import (
	"fmt"
	"strings"
	"time"

	"xgrammar"
)

const gpuStepTime = 3 * time.Millisecond

// request is one incoming generation: which grammar it wants, the
// teacher-forced target, and the decode round it arrives at.
type request struct {
	name     string
	schema   []byte // nil: builtin JSON grammar
	target   string
	arriveAt int
}

// sequence is a live batch entry.
type sequence struct {
	req     request
	s       *xgrammar.Session
	emitted int
	jumped  int
}

func main() {
	info := xgrammar.DefaultTokenizer(4000)
	compiler := xgrammar.NewCompiler(info)
	eng := xgrammar.NewEngine(compiler)

	schema := []byte(`{"type": "object", "properties": {
		"name": {"type": "string"}, "id": {"type": "integer"}}, "required": ["name", "id"]}`)
	jsonDoc := `{"user": {"name": "ada", "scores": [98, 87, 91]}, "active": true}`
	schemaDoc := `{"name": "ada", "id": 7}`

	var reqs []request
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			reqs = append(reqs, request{fmt.Sprintf("r%d/json", i), nil, jsonDoc, i * 2})
		} else {
			reqs = append(reqs, request{fmt.Sprintf("r%d/schema", i), schema, schemaDoc, i * 2})
		}
	}

	run := func(overlapped bool) (time.Duration, int, int) {
		var batch []*sequence
		pending := append([]request(nil), reqs...)
		tokens, rounds := 0, 0
		start := time.Now()
		for len(batch) > 0 || len(pending) > 0 {
			// Admission: arrived requests join the running batch. Grammar
			// resolution goes through the compiled-grammar LRU; session state
			// comes from the per-grammar pool.
			for len(pending) > 0 && pending[0].arriveAt <= rounds {
				req := pending[0]
				pending = pending[1:]
				var s *xgrammar.Session
				var err error
				if req.schema == nil {
					cg, cerr := compiler.CompileBuiltinJSON()
					if cerr != nil {
						panic(cerr)
					}
					s = eng.OpenSession(cg)
				} else if s, err = eng.OpenJSONSchemaSession(req.schema, xgrammar.SchemaOptions{}); err != nil {
					panic(err)
				}
				batch = append(batch, &sequence{req: req, s: s})
			}
			rounds++
			// One batched forward pass; the grammar engine fills every live
			// mask while the GPU runs (overlapped) or after it (serial).
			sessions := make([]*xgrammar.Session, len(batch))
			for i, q := range batch {
				sessions[i] = q.s
			}
			gpuDone := time.After(gpuStepTime)
			if overlapped {
				eng.FillBatch(sessions)
				<-gpuDone
			} else {
				<-gpuDone
				eng.FillBatch(sessions)
			}
			// Sample (teacher-forced), accept, insert jump-forwards, retire.
			// Accept does not refill: the next round's FillBatch recomputes
			// every stale mask while the GPU step runs, so the
			// grammar work happens exactly once per token — off the critical
			// path.
			for i := 0; i < len(batch); {
				q := batch[i]
				var next int32
				if q.emitted >= len(q.req.target) {
					next = info.EOSTokenID()
				} else {
					next = info.Encode(q.req.target[q.emitted:])[0]
				}
				if q.s.Mask()[next>>6]&(1<<uint(next&63)) == 0 {
					panic("target token masked out")
				}
				if err := q.s.Accept(next); err != nil {
					panic(err)
				}
				if q.s.IsTerminated() {
					q.s.Close() // state recycled for the next arrival
					batch[i] = batch[len(batch)-1]
					batch = batch[:len(batch)-1]
					continue
				}
				q.emitted += len(info.TokenBytes(next))
				tokens++
				// Jump-forward: insert the deterministic continuation when it
				// matches the target (Appendix B).
				if jf := q.s.JumpForward(); jf != "" &&
					strings.HasPrefix(q.req.target[q.emitted:], jf) {
					if err := q.s.AcceptString(jf); err != nil {
						panic(err)
					}
					q.emitted += len(jf)
					q.jumped += len(jf)
				}
				i++
			}
		}
		return time.Since(start), tokens, rounds
	}

	fmt.Printf("continuous batching: %d requests (2 grammars), GPU step %v\n\n", len(reqs), gpuStepTime)
	serialT, n, serialRounds := run(false)
	overlapT, _, overlapRounds := run(true)
	fmt.Printf("  serial     (fill after GPU step):  %7v/round, %d tokens in %d rounds\n",
		(serialT / time.Duration(serialRounds)).Round(time.Microsecond), n, serialRounds)
	fmt.Printf("  overlapped (fill during GPU step): %7v/round\n",
		(overlapT / time.Duration(overlapRounds)).Round(time.Microsecond))
	fmt.Printf("  pure GPU floor:                    %7v/round\n\n", gpuStepTime)
	fmt.Println("the batch mask fill runs on the decode goroutine while the GPU step")
	fmt.Println("executes, so with the mask cache the grammar work disappears from")
	fmt.Println("the critical path (§3.5)")

	st := compiler.CompileCacheStats()
	fmt.Printf("\ncompiled-grammar cache: %d builds for %d requests ×2 runs (%d hits)\n",
		st.Builds, len(reqs), st.Hits)
	fmt.Println("sessions joining mid-run reuse the matcher/mask state of finished")
	fmt.Println("sequences (sync.Pool), so steady-state admission allocates no grammar state")
}
