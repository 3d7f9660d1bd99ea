// Package cost provides cardinality estimation from catalog statistics
// and the cost model used both to pick the optimal plan (the paper's
// "most cost effective operator in the root group") and to cost arbitrary
// sampled plans for the cost-distribution experiments of Section 5.
//
// The model is a textbook I/O + CPU model. The paper argues (contra
// Ioannidis and Kang) that the qualitative shape of cost distributions is
// not an artifact of a particular cost model; what this model must get
// right is the *structure*: scans pay I/O, hash joins pay linear build
// and probe, merge joins need sorted inputs, nested-loop joins re-execute
// their inner child per outer row, and sorts pay n·log n. Those structural
// choices, not the constants, produce the enormous cost spreads of
// Table 1.
package cost

// The constants of the cost model.
const (
	pageBytes = 8192 // storage page size

	seqPageCost  = 1.0 // sequential page read
	randPageCost = 4.0 // random page read (index traversal)

	cpuTuple   = 0.01   // producing/copying one tuple
	cpuEval    = 0.0025 // evaluating one predicate or projection on a row
	cpuBuild   = 0.02   // inserting one row into a hash table
	cpuProbe   = 0.01   // probing a hash table with one row
	cpuCompare = 0.015  // one comparison during sorting or merging

	memoryPages = 1024 // working memory before hash/sort spill penalties
)
