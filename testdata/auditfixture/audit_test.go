// This file stands where the repository's own audit_test.go stands, so
// the metric rule skips it inside the fixture, and the metric planted
// there stays unread. Seen from the repository root it is an ordinary
// test file, which mentions both of the fixture's metric names,
// sidrd_fixture_read_total and sidrd_fixture_planted_total, so that the
// repository's own audit finds them read.
package fixture_test
