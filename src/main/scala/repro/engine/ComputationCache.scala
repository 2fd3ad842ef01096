package repro.engine

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

/** The computation cache (§5.4): stores results of mergeable summaries,
  * indexed by (dataset key, sketch cache key); the spreadsheet's dataset
  * key is `CachedTable.cacheKey`, the table id and the identity of its
  * source's cached blocks. Results are O(screen)-sized,
  * so "a large number of results" fits in memory; entries are soft state —
  * clearing the cache is always safe (§5.7).
  *
  * Used chiefly for deterministic auxiliary summaries (column ranges,
  * distinct counts) that every chart's preparation phase re-requests.
  */
final class ComputationCache(maxEntries: Int = 10000) {
  private val map    = new ConcurrentHashMap[(String, String), Any]()
  private val hits   = new AtomicLong(0)
  private val misses = new AtomicLong(0)

  def getOrCompute[S](tableId: String, sketchKey: String)(compute: => S): S = {
    val key = (tableId, sketchKey)
    val cached = map.get(key)
    if (cached != null) { hits.incrementAndGet(); cached.asInstanceOf[S] }
    else {
      misses.incrementAndGet()
      val v = compute
      if (map.size < maxEntries) map.put(key, v)
      v
    }
  }

  def contains(tableId: String, sketchKey: String): Boolean = map.containsKey((tableId, sketchKey))
  def hitCount: Long  = hits.get
  def missCount: Long = misses.get
  def size: Int       = map.size
  def clear(): Unit   = { map.clear(); hits.set(0); misses.set(0) }
}
