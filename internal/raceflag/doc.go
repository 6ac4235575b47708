// Package raceflag reports whether the binary was built with the race
// detector, so tests can shape themselves for it: a timing probe skips, a
// stress run shrinks or phases its writers. Each use site states why.
package raceflag
