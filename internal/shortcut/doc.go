// Package shortcut implements tree-restricted low-congestion shortcuts
// (Definitions 2.1-2.3): their node-local representation, the block setup
// pass that distributes block-root information for Lemma 4.2's routing
// discipline, and offline quality measurement (congestion and block
// parameter) used by verification tests and the Table 1 experiments.
//
// A T-restricted shortcut assigns to each part P_i a subset H_i of the BFS
// tree's edges. Because construction claims always travel rootward, the
// natural local representation is a part table per node: for each part
// whose shortcut touches v, whether H_i contains v's parent edge (the up
// bit), the ports to children whose edges it carries (the down-ports,
// learned when claims passed by), and the block metadata setup delivers.
// The tables are one CSR array of runs sorted by part ID: construction
// protocols log claims per node, and Seal merges them in (SetupBlocks seals
// first), so every lookup is a binary search and no node holds a map. The
// blocks of P_i are the connected components of the forest (V(H_i), H_i);
// each is a subtree of T whose root is its member closest to the tree root.
package shortcut
