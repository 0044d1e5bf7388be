//! Property tests on the Soft Data Structures: each one must behave
//! exactly like its `std` counterpart, modulo explicitly-observed
//! reclamations.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use softmem::core::{Priority, Sma};
use softmem::sds::{
    ReclaimEnd, SoftContainer, SoftHashMap, SoftLinkedList, SoftLruCache, SoftSortedMap, SoftVec,
};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u16),
    Remove(u8),
    Get(u8),
    Reclaim(usize),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        2 => any::<u8>().prop_map(MapOp::Remove),
        3 => any::<u8>().prop_map(MapOp::Get),
        1 => (1usize..2000).prop_map(MapOp::Reclaim),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn soft_hashmap_matches_std_model(ops in proptest::collection::vec(map_op(), 1..200)) {
        let sma = Sma::standalone(1 << 14);
        let map: SoftHashMap<u8, u16> = SoftHashMap::new(&sma, "m", Priority::default());
        // Reclaimed keys are reported through the callback; mirror them
        // into the model so it stays exact.
        let evicted: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&evicted);
        map.set_reclaim_callback(move |k: &u8, _v: &u16| sink.lock().push(*k));
        let mut model = std::collections::HashMap::new();

        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(map.insert(k, v).expect("budget"), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(map.remove(&k), model.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(map.get(&k), model.get(&k).copied());
                }
                MapOp::Reclaim(bytes) => {
                    map.reclaim_now(bytes);
                    for k in evicted.lock().drain(..) {
                        model.remove(&k);
                    }
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
        // Full sweep at the end.
        let mut seen = 0;
        map.for_each(|k, v| {
            assert_eq!(model.get(k), Some(v));
            seen += 1;
        });
        prop_assert_eq!(seen, model.len());
    }

    /// Byte-string keys looked up by both borrowed forms: `&[u8]` and
    /// `&Vec<u8>` must hash to the same bucket and compare equal, so
    /// either one finds what `insert` stored.
    #[test]
    fn soft_hashmap_borrowed_byte_keys_match_std_model(
        ops in proptest::collection::vec(
            (0u8..4, any::<u8>(), any::<u64>()),
            1..200,
        ),
    ) {
        let sma = Sma::standalone(1 << 14);
        let map: SoftHashMap<Vec<u8>, u64> = SoftHashMap::new(&sma, "m", Priority::default());
        let mut model: std::collections::HashMap<Vec<u8>, u64> = std::collections::HashMap::new();
        for (i, (kind, k, v)) in ops.into_iter().enumerate() {
            // Lengths 0..=6, so the empty key and shared prefixes occur.
            let key = vec![b'a' + k % 3; usize::from(k % 7)];
            let slice: &[u8] = &key;
            match (kind, i % 2 == 0) {
                (0, _) => {
                    prop_assert_eq!(map.insert(key.clone(), v).expect("budget"), model.insert(key, v));
                }
                (1, true) => prop_assert_eq!(map.get(slice), model.get(slice).copied()),
                (1, false) => prop_assert_eq!(map.get(&key), model.get(&key).copied()),
                (2, true) => prop_assert_eq!(map.contains_key(slice), model.contains_key(slice)),
                (2, false) => prop_assert_eq!(map.contains_key(&key), model.contains_key(&key)),
                (_, true) => prop_assert_eq!(map.remove(slice), model.remove(slice)),
                (_, false) => prop_assert_eq!(map.remove(&key), model.remove(&key)),
            }
            prop_assert_eq!(map.len(), model.len());
        }
    }

    #[test]
    fn soft_list_matches_std_model(
        ops in proptest::collection::vec(
            prop_oneof![
                3 => any::<u32>().prop_map(Some),
                1 => Just(None), // pop_front
            ],
            1..150,
        ),
        reclaim_at in 0usize..150,
        reclaim_n in 0usize..20,
    ) {
        let sma = Sma::standalone(1 << 14);
        let list: SoftLinkedList<u32> = SoftLinkedList::new(&sma, "l", Priority::default());
        let mut model = std::collections::VecDeque::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Some(v) => {
                    list.push_back(*v).expect("budget");
                    model.push_back(*v);
                }
                None => {
                    prop_assert_eq!(list.pop_front().expect("consistent"), model.pop_front());
                }
            }
            if i == reclaim_at {
                // Oldest-first reclamation = popping from the front;
                // the model drops however many elements the list lost.
                list.reclaim_now(reclaim_n * 64);
                while model.len() > list.len() {
                    model.pop_front();
                }
            }
            prop_assert_eq!(list.len(), model.len());
        }
        prop_assert_eq!(list.to_vec(), Vec::from(model));
    }

    #[test]
    fn soft_vec_matches_std_model(
        values in proptest::collection::vec(any::<u64>(), 1..300),
        truncate_to in 0usize..300,
    ) {
        let sma = Sma::standalone(1 << 14);
        let v: SoftVec<u64> = SoftVec::with_chunk_bytes(&sma, "v", Priority::default(), 128);
        for &x in &values {
            v.push(x).expect("budget");
        }
        let mut model = values.clone();
        v.truncate(truncate_to);
        model.truncate(truncate_to);
        prop_assert_eq!(v.len(), model.len());
        for (i, &x) in model.iter().enumerate() {
            prop_assert_eq!(v.get(i).expect("in range"), x);
        }
        // Pops agree too.
        while let Some(got) = v.pop() {
            prop_assert_eq!(Some(got), model.pop());
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn soft_sorted_map_matches_btreemap_model(ops in proptest::collection::vec(map_op(), 1..200)) {
        let sma = Sma::standalone(1 << 14);
        let map: SoftSortedMap<u8, u16> = SoftSortedMap::new(&sma, "m", Priority::default());
        let mut model = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(map.insert(k, v).expect("budget"), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(map.remove(&k), model.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(map.get(&k), model.get(&k).copied());
                }
                MapOp::Reclaim(bytes) => {
                    // Smallest-first eviction: drop the model's head to
                    // match however many entries the map lost.
                    map.reclaim_now(bytes);
                    while model.len() > map.len() {
                        let k = *model.keys().next().expect("nonempty");
                        model.remove(&k);
                    }
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.first_key(), model.keys().next().copied());
            prop_assert_eq!(map.last_key(), model.keys().next_back().copied());
        }
        let collected = map.range_collect(..);
        let expected: Vec<(u8, u16)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn sorted_map_evicts_only_from_its_chosen_end(
        keys in proptest::collection::btree_set(any::<u8>(), 2..60),
        evict_bytes in 1usize..200,
        largest_end in any::<bool>(),
    ) {
        let sma = Sma::standalone(1 << 14);
        let end = if largest_end { ReclaimEnd::Largest } else { ReclaimEnd::Smallest };
        let map: SoftSortedMap<u8, u16> =
            SoftSortedMap::with_reclaim_end(&sma, "m", Priority::default(), end);
        let evicted: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&evicted);
        map.set_reclaim_callback(move |k: &u8, _v: &u16| sink.lock().push(*k));
        for &k in &keys {
            map.insert(k, k as u16).expect("budget");
        }
        map.reclaim_now(evict_bytes);
        let ev = evicted.lock();
        // The eviction sequence walks monotonically inward from the
        // chosen end…
        for w in ev.windows(2) {
            if largest_end {
                prop_assert!(w[0] > w[1], "largest-end eviction went backwards: {:?}", *ev);
            } else {
                prop_assert!(w[0] < w[1], "smallest-end eviction went backwards: {:?}", *ev);
            }
        }
        // …and is exactly the outermost |ev| keys — never an interior
        // key while an outer one survives.
        let sorted: Vec<u8> = keys.iter().copied().collect();
        let expected: Vec<u8> = if largest_end {
            sorted.iter().rev().take(ev.len()).copied().collect()
        } else {
            sorted.iter().take(ev.len()).copied().collect()
        };
        prop_assert_eq!(&*ev, &expected);
        prop_assert_eq!(map.len(), keys.len() - ev.len());
        // Survivors are intact and the map still answers exactly.
        for &k in sorted.iter().filter(|k| !ev.contains(k)) {
            prop_assert_eq!(map.get(&k), Some(k as u16));
        }
    }

    #[test]
    fn lru_counters_are_exact_and_monotone_and_evictions_lru_first(
        ops in proptest::collection::vec(
            prop_oneof![
                4 => any::<u8>().prop_map(|k| ("insert", k)),
                4 => any::<u8>().prop_map(|k| ("get", k)),
                1 => any::<u8>().prop_map(|k| ("remove", k)),
                1 => any::<u8>().prop_map(|k| ("reclaim", k)),
            ],
            1..150,
        ),
    ) {
        let sma = Sma::standalone(1 << 14);
        let cache: SoftLruCache<u8, u64> = SoftLruCache::new(&sma, "c", Priority::default());
        let evicted: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&evicted);
        cache.set_reclaim_callback(move |k: &u8, _v: &u64| sink.lock().push(*k));
        // Model: recency order, front = least recently used.
        let mut order: Vec<u8> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        let (mut prev_hits, mut prev_misses) = (0u64, 0u64);
        for (op, k) in ops {
            match op {
                "insert" => {
                    cache.insert(k, k as u64).expect("budget");
                    order.retain(|&x| x != k);
                    order.push(k);
                }
                "get" => {
                    let got = cache.get(&k);
                    if let Some(pos) = order.iter().position(|&x| x == k) {
                        hits += 1;
                        let k = order.remove(pos);
                        order.push(k);
                        prop_assert_eq!(got, Some(k as u64));
                    } else {
                        misses += 1;
                        prop_assert_eq!(got, None);
                    }
                }
                "remove" => {
                    let got = cache.remove(&k);
                    prop_assert_eq!(got.is_some(), order.contains(&k));
                    order.retain(|&x| x != k);
                }
                _ => {
                    // Evict up to k/32 entries (8 bytes per u64 value).
                    evicted.lock().clear();
                    cache.reclaim_now((k as usize / 32) * 8);
                    let ev = std::mem::take(&mut *evicted.lock());
                    // Strictly LRU-first: the evicted run is exactly the
                    // model's least-recent prefix.
                    prop_assert_eq!(&ev[..], &order[..ev.len()]);
                    order.drain(..ev.len());
                }
            }
            let s = cache.cache_stats();
            prop_assert_eq!((s.hits, s.misses), (hits, misses));
            prop_assert!(
                s.hits >= prev_hits && s.misses >= prev_misses,
                "hit/miss counters went backwards"
            );
            prev_hits = s.hits;
            prev_misses = s.misses;
            prop_assert_eq!(cache.len(), order.len());
        }
    }

    #[test]
    fn lru_reclaims_strictly_by_recency(
        n in 4usize..40,
        touches in proptest::collection::vec(any::<usize>(), 0..40),
        evict in 1usize..10,
    ) {
        let sma = Sma::standalone(1 << 14);
        let cache: SoftLruCache<usize, u64> = SoftLruCache::new(&sma, "c", Priority::default());
        for i in 0..n {
            cache.insert(i, i as u64).expect("budget");
        }
        // Recency order after touches:
        let mut order: Vec<usize> = (0..n).collect();
        for &t in &touches {
            let k = t % n;
            if cache.get(&k).is_some() {
                let pos = order.iter().position(|&x| x == k).expect("tracked");
                let k = order.remove(pos);
                order.push(k);
            }
        }
        let evict = evict.min(n - 1);
        cache.reclaim_now(evict * std::mem::size_of::<u64>());
        // The `evict` least-recently-used keys are gone, the rest live.
        for (i, &k) in order.iter().enumerate() {
            prop_assert_eq!(
                cache.contains_key(&k),
                i >= evict,
                "key {} at recency position {}", k, i
            );
        }
    }
}
