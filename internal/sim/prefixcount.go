package sim

import "peerwindow/internal/nodeid"

// prefixCount maintains population counts per identifier prefix, for
// prefix lengths 0..depth. Adding a node increments the count of each of
// its depth+1 ancestor prefixes, so any group size — "how many nodes
// share these l leading bits" — is one array read. This is the data
// structure that makes the scaled simulator O(1) per membership change
// where a sorted registry would be O(N).
//
// Prefixes are dense array indices (the top l bits of the ID), so depth
// is capped at maxPrefixDepth to bound memory (2^(depth+1) ints total).
type prefixCount struct {
	depth int
	// counts[l][p] is the number of nodes whose top l bits equal p.
	counts [][]int32
	total  int
}

// maxPrefixDepth bounds the depth (2^21 int32s ≈ 8 MiB at 20).
const maxPrefixDepth = 20

func newPrefixCount(depth int) *prefixCount {
	if depth < 0 || depth > maxPrefixDepth {
		panic("sim: prefixCount depth out of range")
	}
	pc := &prefixCount{depth: depth, counts: make([][]int32, depth+1)}
	for l := 0; l <= depth; l++ {
		pc.counts[l] = make([]int32, 1<<uint(l))
	}
	return pc
}

// bucket returns the dense index of id's l-bit prefix.
func bucket(id nodeid.ID, l int) uint64 {
	if l == 0 {
		return 0
	}
	return id.Hi >> uint(64-l)
}

// Add counts a node at every ancestor prefix.
func (pc *prefixCount) Add(id nodeid.ID) {
	for l := 0; l <= pc.depth; l++ {
		pc.counts[l][bucket(id, l)]++
	}
	pc.total++
}

// addLeaf counts a node at the deepest prefix only, for bulk builds:
// call sumLeaves once after the last addLeaf and before any read.
// Counting one row and deriving the rest costs one increment per node
// instead of depth+1 scattered ones.
func (pc *prefixCount) addLeaf(id nodeid.ID) {
	pc.counts[pc.depth][bucket(id, pc.depth)]++
	pc.total++
}

// sumLeaves derives every shallower row from the deepest: the l-bit
// prefix p is the union of the (l+1)-bit prefixes 2p and 2p+1.
func (pc *prefixCount) sumLeaves() {
	for l := pc.depth - 1; l >= 0; l-- {
		row, below := pc.counts[l], pc.counts[l+1]
		for p := range row {
			row[p] = below[2*p] + below[2*p+1]
		}
	}
}

// Remove uncounts a node.
func (pc *prefixCount) Remove(id nodeid.ID) {
	for l := 0; l <= pc.depth; l++ {
		pc.counts[l][bucket(id, l)]--
	}
	pc.total--
}

// Count returns the number of nodes whose top l bits match id's.
func (pc *prefixCount) Count(id nodeid.ID, l int) int {
	if l > pc.depth {
		l = pc.depth
	}
	return int(pc.counts[l][bucket(id, l)])
}

// Total returns the total population counted.
func (pc *prefixCount) Total() int { return pc.total }

// levelPrefixCount maintains, per level, the count of level-l nodes in
// each l-bit prefix bucket — exactly the audience composition A_l(S) of
// figure 2: the number of level-l nodes whose eigenstring is a prefix of
// a subject S is one array read.
type levelPrefixCount struct {
	depth  int
	counts [][]int32 // counts[l][p]: level-l nodes with eigenstring p
	perLvl []int
}

func newLevelPrefixCount(depth int) *levelPrefixCount {
	if depth < 0 || depth > maxPrefixDepth {
		panic("sim: levelPrefixCount depth out of range")
	}
	lc := &levelPrefixCount{
		depth:  depth,
		counts: make([][]int32, depth+1),
		perLvl: make([]int, depth+1),
	}
	for l := 0; l <= depth; l++ {
		lc.counts[l] = make([]int32, 1<<uint(l))
	}
	return lc
}

// Add counts a node operating at the given level.
func (lc *levelPrefixCount) Add(id nodeid.ID, level int) {
	lc.counts[level][bucket(id, level)]++
	lc.perLvl[level]++
}

// Remove uncounts a node at the given level.
func (lc *levelPrefixCount) Remove(id nodeid.ID, level int) {
	lc.counts[level][bucket(id, level)]--
	lc.perLvl[level]--
}

// Audience returns the number of level-l nodes whose eigenstring is a
// prefix of subject.
func (lc *levelPrefixCount) Audience(subject nodeid.ID, l int) int {
	return int(lc.counts[l][bucket(subject, l)])
}

// LevelCount returns the population at a level.
func (lc *levelPrefixCount) LevelCount(l int) int { return lc.perLvl[l] }
