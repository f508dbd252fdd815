package protocheck

// Exports for the external test package, which may import the seeded-bug
// registry (internal/conform imports this package).
var ExploreCached = exploreCached

const NumBugs = numBugs
