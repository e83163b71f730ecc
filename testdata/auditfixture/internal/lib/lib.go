// Package lib plants the audit's export findings: Unread has no reader
// at all and TestOnly is read only by this package's tests, while Used is
// read by cmd/tool. Box.Size is read through Sizer, which Box implements,
// and Box.Tag through an interface literal; Bag.Size shares Sizer's
// method name but not its signature, so Bag implements no interface that
// declares it and nothing reads it.
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

// Sizer is what cmd/tool reads sizes through.
type Sizer interface{ Size() int }

// Box implements Sizer.
type Box struct{}

// Size is read through Sizer.
func (Box) Size() int { return 4 }

// Tag is read through an interface literal in cmd/tool.
func (Box) Tag() string { return "box" }

// Bag does not implement Sizer.
type Bag struct{}

// Size is read by nothing: no interface Bag implements declares it.
func (Bag) Size(scale int) int { return 5 * scale }
