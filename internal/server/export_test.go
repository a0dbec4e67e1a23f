package server

// TagSessionsOutstanding sums, over the memoized structural-tag sets, the
// dispatcher and segment sessions acquired and not yet closed.
func (s *Server) TagSessionsOutstanding() int64 {
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	var n int64
	for _, ts := range s.tagSets {
		n += ts.Dispatch().Outstanding()
		for i := range ts.Tags() {
			n += ts.SegmentGrammar(i).SessionsOutstanding()
		}
	}
	return n
}
