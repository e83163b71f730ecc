// Package lib plants the audit's export findings: Unread has no reader
// at all and TestOnly is read only by this package's tests, while Used is
// read by cmd/tool.
package lib

// Metrics names the package's instruments: cmd/tool registers both,
// README.md mentions only the first.
var Metrics = []string{"sidrd_fixture_read_total", "sidrd_fixture_planted_total"}

// Used is read by cmd/tool.
func Used() int { return 1 }

// Unread is read by nothing.
func Unread() int { return 2 }

// TestOnly is read by lib_test.go only.
func TestOnly() int { return 3 }
