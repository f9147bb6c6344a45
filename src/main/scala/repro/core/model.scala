package repro.core

/** Row/record types shared by the distributed TeraHAC dataflow.
  *
  * These are the Scala analogues of the KVTable value types in the paper's
  * Flume-C++ pseudocode (Fig. 5): a vertex carries its cluster size and the
  * minimum merge similarity `M(v)` used to build it, plus `minLeaf` — the
  * minimum original vertex id contained in the cluster, which drives the
  * coordination-free dendrogram node-id scheme (see DESIGN.md).
  */
object model {

  /** Offset added to a consumed leaf id to form a dendrogram-internal node id.
    * Original vertex ids must be < IdOffset.
    */
  val IdOffset: Long = 1L << 40

  /** Multiplicative slack applied to every goodness comparison so that the
    * FP-order difference between local merge arithmetic and the distributed
    * renormalization (`Σ raw / (|A||B|)`) cannot deadlock an ε=0 run.
    */
  val FpSlack: Double = 1e-9

  /** Vertex metadata carried across rounds (paper Fig. 5 `Vertex` metadata). */
  final case class VertexMeta(id: Long, size: Long, minMerge: Double, minLeaf: Long)

  /** Directed weighted edge; the distributed graph stores both directions. */
  final case class WEdge(src: Long, dst: Long, w: Double)

  /** One directed edge enriched with both endpoints' metadata and partition
    * ids — the unit shipped to a SubgraphHAC group. Grouping the symmetric
    * edge set by `cid` (= cluster of `src`) delivers exactly the edges of
    * G^C for cluster C: every edge with ≥1 endpoint in C appears via the
    * direction whose source lies in C.
    */
  final case class EdgeCtx(
      cid: Long,
      src: Long, srcSize: Long, srcMinMerge: Double, srcMinLeaf: Long,
      dst: Long, dstSize: Long, dstMinMerge: Double, dstMinLeaf: Long, dstCid: Long,
      w: Double)

  /** Union-typed output row of one SubgraphHAC group.
    *
    *  - kind=Dendro  : dendrogram row — child `a`, parent `b`, linkage `sim`
    *  - kind=Assign  : vertex `a` maps to post-merge cluster `b` of `size`
    *  - kind=Partial : one owned edge (u, v) — u's post-merge cluster `a`
    *                   of `size`, old vertex `b` = v, raw weight
    *                   `sim` = w·|u|·|v|
    *  - kind=Meta    : post-merge cluster `a` with (size, minMerge, minLeaf)
    */
  final case class SubOut(kind: Int, a: Long, b: Long, sim: Double,
                          size: Long, minMerge: Double, minLeaf: Long)
  object SubOut {
    val Dendro  = 0
    val Assign  = 1
    val Meta    = 2
    val Partial = 3
  }

  /** One dendrogram edge: `child`'s parent node and the linkage similarity
    * of the merge that created the parent (paper's `DendrogramNode`).
    */
  final case class DendroRow(child: Long, parent: Long, sim: Double)
}
