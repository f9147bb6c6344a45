package repro.graph

import scala.collection.mutable

/** Minimal path-compressing union-find over Long ids. */
final class UnionFind {
  private val parent = mutable.HashMap.empty[Long, Long]
  def find(x: Long): Long = {
    var r = x
    while (parent.getOrElse(r, r) != r) r = parent(r)
    var c = x
    while (parent.getOrElse(c, c) != c) { val n = parent(c); parent(c) = r; c = n }
    r
  }
  /** Union by min id: the root is always the minimum member. */
  def union(a: Long, b: Long): Unit = {
    val ra = find(a); val rb = find(b)
    if (ra != rb) {
      if (ra < rb) parent(rb) = ra else parent(ra) = rb
    }
  }
}
