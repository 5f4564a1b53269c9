// Package libtest is test support by name: reach never reports it, though
// no root reaches Helper.
package libtest

// Helper is used only by tests.
func Helper() {}
