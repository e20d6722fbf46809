package core

import "fmt"

// OracleWindowViolation reports a breach of the oracle window's sizing
// argument (see window.go): on the correct path, traceCursor and the one
// index of lookahead past it must fit in the ring above commitCursor.
func (m *Machine) OracleWindowViolation() error {
	if m.traceCursor < 0 {
		return nil
	}
	if span, size := m.traceCursor+1-m.commitCursor, int64(len(m.oracle.pc)); span > size {
		return fmt.Errorf("cycle %d: traceCursor %d + 1 - commitCursor %d = %d exceeds the window size %d",
			m.cycle, m.traceCursor, m.commitCursor, span, size)
	}
	return nil
}
