//! The top-level ASMCap device (paper Fig. 4a).
//!
//! A device is a bank of CAM arrays (the paper evaluates 512 arrays of
//! 256×256 = 64 Mb) fed by a global buffer over an H-tree. A reference
//! genome is segmented into row-sized windows at a configurable stride and
//! written across the arrays; one search operation broadcasts a read to
//! every array and senses all matchlines in parallel.

use crate::array::{CamArray, MatchMode, SearchOutcome};
use crate::fault::{FaultPlan, FaultTally};
use asmcap_circuit::{MlCam, Rng};
use asmcap_genome::{DnaSeq, PackedRef, PackedSeq, PackedWords as _};
use std::fmt;

/// A set of the device's stored rows (flat storage order), selecting
/// which rows a masked search may sense.
///
/// This is the software model of the controller's row gating: the k-mer
/// prefilter shortlists candidate segment origins, [`AsmcapDevice::mask_for_origins`]
/// turns them into a mask, and [`AsmcapDevice::search`] under that mask
/// drives only the masked-in matchlines.
///
/// The set rows are kept as one ascending list, so a mask costs its
/// shortlist, not the device: building one from `c` origins is `O(c)` on a
/// single reference's stride grid (`O(c log rows)` at worst), and
/// [`RowMask::ones_in`] is two binary searches.
///
/// # Examples
///
/// ```
/// use asmcap_arch::RowMask;
/// let mut mask = RowMask::new(8);
/// mask.set(5);
/// mask.set(2);
/// assert!(mask.get(2) && !mask.get(3));
/// assert_eq!(mask.count_ones(), 2);
/// assert_eq!(mask.ones_in(0..8).collect::<Vec<_>>(), vec![2, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    /// The marked rows, strictly ascending.
    ones: Vec<usize>,
    len: usize,
}

impl RowMask {
    /// An all-clear mask over `len` rows.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            ones: Vec::new(),
            len,
        }
    }

    /// An all-set mask over `len` rows (masked search degenerates to the
    /// full search, byte-identically).
    #[must_use]
    pub fn full(len: usize) -> Self {
        Self {
            ones: (0..len).collect(),
            len,
        }
    }

    /// Number of rows the mask covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks row `i` for sensing. Marking rows in ascending order (as
    /// [`AsmcapDevice::mask_for_origins`] does) appends; any other order
    /// inserts in place, and marking a row twice is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "row {i} out of mask of {} rows", self.len);
        if self.ones.last().is_none_or(|&last| last < i) {
            self.ones.push(i);
        } else if let Err(at) = self.ones.binary_search(&i) {
            self.ones.insert(at, i);
        }
    }

    /// Whether row `i` is marked.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        self.ones.binary_search(&i).is_ok()
    }

    /// Number of marked rows.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.ones.len()
    }

    /// The marked rows inside `range`, ascending (a range reaching past
    /// the mask, or an empty one, is clamped) — two binary searches, then
    /// a walk over exactly the marked rows.
    pub fn ones_in(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = usize> + '_ {
        self.ones_within(range).iter().copied()
    }

    /// The marked rows inside `range` as a slice of the ascending list.
    fn ones_within(&self, range: std::ops::Range<usize>) -> &[usize] {
        let lo = self.ones.partition_point(|&r| r < range.start);
        let hi = self.ones.partition_point(|&r| r < range.end).max(lo);
        &self.ones[lo..hi]
    }
}

/// Location of one stored row inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    /// Array index within the device.
    pub array: usize,
    /// Row index within the array.
    pub row: usize,
}

/// One matching row reported by a device search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMatch {
    /// Which physical row matched.
    pub id: RowId,
    /// Genome position the row's segment was taken from.
    pub origin: usize,
    /// The row's noiseless mismatch count.
    pub n_mis: usize,
}

/// Timing/energy accounting of one device search.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStats {
    /// Number of array-level search operations issued (all in parallel).
    pub array_searches: usize,
    /// Energy across all arrays, in joules.
    pub energy_j: f64,
    /// Wall-clock latency (arrays operate in parallel), in seconds.
    pub latency_s: f64,
    /// Rows where re-sense majority voting fired (0 without faults).
    pub resensed: u64,
    /// Quarantined rows answered by the exact digital fallback (0 without
    /// faults).
    pub requarried: u64,
}

/// Result of searching one read against the whole device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceSearchResult {
    /// All rows whose sense amplifier fired, with their origins.
    pub matches: Vec<DeviceMatch>,
    /// Accounting for this search.
    pub stats: SearchStats,
}

/// Error returned when a reference does not fit the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Rows the segmentation requires.
    pub required_rows: usize,
    /// Rows the device provides.
    pub available_rows: usize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reference needs {} rows but the device has {}",
            self.required_rows, self.available_rows
        )
    }
}

impl std::error::Error for CapacityError {}

/// Builder for [`AsmcapDevice`] (see paper §V-A for the evaluated shape).
///
/// # Examples
///
/// ```
/// use asmcap_arch::DeviceBuilder;
/// let device = DeviceBuilder::new()
///     .arrays(4)
///     .rows_per_array(64)
///     .row_width(128)
///     .build_asmcap();
/// assert_eq!(device.capacity_rows(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    arrays: usize,
    rows: usize,
    width: usize,
}

impl DeviceBuilder {
    /// Starts from the paper's configuration: 512 arrays of 256×256.
    #[must_use]
    pub fn new() -> Self {
        Self {
            arrays: asmcap_circuit::params::ARRAY_COUNT,
            rows: asmcap_circuit::params::ARRAY_ROWS,
            width: asmcap_circuit::params::ARRAY_COLS,
        }
    }

    /// Sets the number of arrays.
    #[must_use]
    pub fn arrays(mut self, arrays: usize) -> Self {
        self.arrays = arrays;
        self
    }

    /// Sets the rows per array (`M`).
    #[must_use]
    pub fn rows_per_array(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Sets the row width (`N`), which must equal the read length.
    #[must_use]
    pub fn row_width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// Builds a charge-domain (ASMCap) device.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn build_asmcap(&self) -> AsmcapDevice {
        AsmcapDevice::from_arrays(
            (0..self.arrays)
                .map(|_| CamArray::asmcap(self.rows, self.width))
                .collect(),
        )
    }
}

impl Default for DeviceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A full multi-array device.
#[derive(Debug, Clone)]
pub struct AsmcapDevice {
    arrays: Vec<CamArray>,
    origins: Vec<usize>, // flat, in storage order
    // Whether `origins` strictly ascends (true for one stored reference; a
    // second `store_reference` call restarts at 0 and clears it), which is
    // what lets `mask_for_origins` find each candidate's one row instead of
    // scanning.
    origins_sorted: bool,
    // `row_starts[a]` is array `a`'s first flat row; the last entry is the
    // occupied row total. Kept in step with the arrays by every store.
    row_starts: Vec<usize>,
    width: usize,
}

impl AsmcapDevice {
    /// Wraps pre-built arrays (all must share one width).
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is empty or widths disagree.
    #[must_use]
    pub fn from_arrays(arrays: Vec<CamArray>) -> Self {
        assert!(!arrays.is_empty(), "a device needs at least one array");
        let width = arrays[0].width();
        assert!(
            arrays.iter().all(|a| a.width() == width),
            "all arrays must share one row width"
        );
        let mut device = Self {
            arrays,
            origins: Vec::new(),
            origins_sorted: true,
            row_starts: Vec::new(),
            width,
        };
        device.index_rows();
        device
    }

    /// Recomputes `row_starts` from the arrays' occupancy.
    fn index_rows(&mut self) {
        self.row_starts = std::iter::once(0)
            .chain(self.arrays.iter().scan(0, |end, array| {
                *end += array.rows();
                Some(*end)
            }))
            .collect();
    }

    /// Row width (= read length) in bases.
    #[must_use]
    pub fn row_width(&self) -> usize {
        self.width
    }

    /// Total row capacity across all arrays.
    #[must_use]
    pub fn capacity_rows(&self) -> usize {
        self.arrays.iter().map(CamArray::max_rows).sum()
    }

    /// Occupied rows.
    #[must_use]
    pub fn stored_rows(&self) -> usize {
        self.origins.len()
    }

    /// Reference capacity in bases at stride `stride`.
    #[must_use]
    pub fn reference_capacity(&self, stride: usize) -> usize {
        self.capacity_rows().saturating_sub(1) * stride + self.width
    }

    /// The arrays, for inspection.
    #[must_use]
    pub fn arrays(&self) -> &[CamArray] {
        &self.arrays
    }

    /// Installs `plan`'s faults on every array (array index = stream
    /// index) and runs each array's self-test quarantine scan at the
    /// pipeline's search `threshold`. Call **after** the reference is
    /// stored so faults land on the occupied rows. An inactive plan
    /// uninstalls all fault state.
    pub fn install_faults(&mut self, plan: &FaultPlan, threshold: usize) {
        for (array_index, array) in self.arrays.iter_mut().enumerate() {
            array.install_faults(plan, array_index, threshold);
        }
    }

    /// Total quarantined rows across all arrays (0 without faults).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.arrays.iter().map(CamArray::quarantined_rows).sum()
    }

    /// Whether any array has fault state installed.
    #[must_use]
    pub fn has_faults(&self) -> bool {
        self.arrays.iter().any(|a| a.faults().is_some())
    }

    /// Segments `reference` into row-width windows every `stride` bases and
    /// stores them across the arrays in order.
    ///
    /// Stride 1 stores every alignment offset (needed to map reads sampled
    /// at arbitrary positions); stride = row width maximises the unique
    /// reference a device holds (the paper's 64 Mb figure).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the segmentation needs more rows than
    /// the device has; nothing is stored in that case.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the reference is shorter than one row.
    pub fn store_reference(
        &mut self,
        reference: &DnaSeq,
        stride: usize,
    ) -> Result<usize, CapacityError> {
        assert!(stride > 0, "stride must be positive");
        assert!(
            reference.len() >= self.width,
            "reference shorter than one row"
        );
        let starts: Vec<usize> = (0..=reference.len() - self.width).step_by(stride).collect();
        let free: usize = self.capacity_rows() - self.stored_rows();
        if starts.len() > free {
            return Err(CapacityError {
                required_rows: starts.len(),
                available_rows: free,
            });
        }
        // Packed once; each row is a word-aligned extraction from this one
        // packing, never an unpack/repack round trip.
        let reference = PackedRef::new(reference);
        // Arrays fill in index order, so the first array with a free row
        // only moves forward: one cursor keeps the store O(rows + arrays).
        let mut cursor = 0;
        for &start in &starts {
            let segment = reference.segment(start, self.width).to_packed();
            while self.arrays[cursor].is_full() {
                cursor += 1;
            }
            self.arrays[cursor]
                .store_row_packed(segment)
                .expect("width and capacity checked");
            if self.origins.last().is_some_and(|&last| start <= last) {
                self.origins_sorted = false;
            }
            self.origins.push(start);
        }
        self.index_rows();
        Ok(starts.len())
    }

    /// The genome origin of a stored row.
    #[must_use]
    pub fn origin_of(&self, id: RowId) -> Option<usize> {
        let base = self
            .row_starts
            .get(id.array)
            .or(self.row_starts.last())
            .copied()
            .unwrap_or(0);
        self.origins.get(base + id.row).copied()
    }

    /// One search operation: the controller broadcasts `read` to the
    /// arrays and senses their matchlines at threshold `T` in `mode`. The
    /// only device walk.
    ///
    /// With `mask: None` every occupied array senses all its rows. With a
    /// [`RowMask`] only masked-in rows run the digital pre-pass and are
    /// sensed: the walk visits the mask's rows once, not the arrays, so
    /// its cost is `O(masked rows · log arrays)` plus the sensing itself,
    /// and arrays with no masked-in row issue no search operation and burn
    /// no energy. Either way arrays are visited in index order and rows
    /// ascending within each, so a full mask is byte-identical to `None`,
    /// RNG draws included.
    ///
    /// `rng` is the read's sensing stream. `fault_rng` is its dedicated
    /// fault stream: passed, each array with installed faults senses
    /// through its fault model and the result's stats carry the
    /// `resensed`/`requarried` mitigation counters; with no faults
    /// installed the walk is byte-identical to passing `None`.
    ///
    /// # Panics
    ///
    /// Panics if the read width differs from the row width or the mask
    /// does not cover exactly the stored rows.
    #[must_use]
    pub fn search(
        &self,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        mask: Option<&RowMask>,
        rng: &mut Rng,
        mut fault_rng: Option<&mut Rng>,
    ) -> DeviceSearchResult {
        assert_eq!(read.len(), self.width, "read must match the row width");
        let mut result = DeviceSearchResult::default();
        let mut tally = FaultTally::default();
        let mut search_array = |array_idx: usize, rows: Option<&[usize]>| {
            let fault = fault_rng.as_deref_mut().map(|f| (f, &mut tally));
            let outcome = self.arrays[array_idx].search(read, threshold, mode, rows, rng, fault);
            self.absorb(&mut result, array_idx, &outcome);
        };
        match mask {
            None => {
                for (array_idx, _) in self.occupied_arrays() {
                    search_array(array_idx, None);
                }
            }
            Some(mask) => {
                self.walk_mask(mask, |array_idx, rows| search_array(array_idx, Some(rows)))
            }
        }
        result.stats.resensed = tally.resensed;
        result.stats.requarried = tally.requarried;
        result
    }

    /// A batch of unmasked, fault-free searches: `results[i]` is
    /// `search(&reads[i], …, None, &mut rngs[i], None)`.
    ///
    /// # Panics
    ///
    /// Panics if `reads` and `rngs` lengths differ or any read width
    /// differs from the row width.
    #[must_use]
    pub fn search_packed_batch(
        &self,
        reads: &[PackedSeq],
        threshold: usize,
        mode: MatchMode,
        rngs: &mut [Rng],
    ) -> Vec<DeviceSearchResult> {
        assert_eq!(
            reads.len(),
            rngs.len(),
            "one sensing RNG stream per batched read"
        );
        reads
            .iter()
            .zip(rngs)
            .map(|(read, rng)| self.search(read, threshold, mode, None, rng, None))
            .collect()
    }

    /// A batch of masked, fault-free searches: `results[i]` is
    /// `search(&reads[i], …, Some(&masks[i]), &mut rngs[i], None)`.
    ///
    /// # Panics
    ///
    /// Panics if `reads`, `masks`, and `rngs` lengths differ, any read
    /// width differs from the row width, or a mask does not cover exactly
    /// the stored rows.
    #[must_use]
    pub fn search_packed_batch_masked(
        &self,
        reads: &[PackedSeq],
        threshold: usize,
        mode: MatchMode,
        masks: &[RowMask],
        rngs: &mut [Rng],
    ) -> Vec<DeviceSearchResult> {
        assert_eq!(
            reads.len(),
            rngs.len(),
            "one sensing RNG stream per batched read"
        );
        assert_eq!(reads.len(), masks.len(), "one row mask per batched read");
        reads
            .iter()
            .zip(masks)
            .zip(rngs)
            .map(|((read, mask), rng)| self.search(read, threshold, mode, Some(mask), rng, None))
            .collect()
    }

    /// The [`RowMask`] (flat storage order) selecting every stored row
    /// whose genome origin appears in `origins`.
    ///
    /// With one stored reference the rows' origins ascend, so each
    /// candidate finds its row directly: the stride of the first two rows
    /// gives a guess, `(origin − origins[0]) / stride`, accepted only if
    /// that row really holds `origin`, and a binary search otherwise. The
    /// guess is exact for every layout and hits on the single-reference
    /// stride grid [`AsmcapDevice::store_reference`] writes, so a
    /// mask costs `O(c)` for `c` candidates there (`O(c log rows)` at
    /// worst) — never `O(reference)`. Once a second reference is stored
    /// the origins no longer ascend and every stored row is checked.
    ///
    /// # Panics
    ///
    /// Panics if `origins` is not sorted ascending (the shape the
    /// prefilter's shortlist hands over).
    #[must_use]
    pub fn mask_for_origins(&self, origins: &[usize]) -> RowMask {
        assert!(
            origins.is_sorted(),
            "candidate origins must be sorted ascending"
        );
        let mut mask = RowMask::new(self.origins.len());
        if self.origins_sorted {
            // Ascending candidates give ascending rows: the mask is built
            // by appends.
            for &origin in origins {
                if let Some(flat) = self.row_of_sorted(origin) {
                    mask.set(flat);
                }
            }
        } else {
            for (flat, origin) in self.origins.iter().enumerate() {
                if origins.binary_search(origin).is_ok() {
                    mask.set(flat);
                }
            }
        }
        mask
    }

    /// The flat row holding `origin` while `origins` strictly ascends: the
    /// stride guess when it hits, else a binary search.
    fn row_of_sorted(&self, origin: usize) -> Option<usize> {
        let (&first, rest) = self.origins.split_first()?;
        // Below the first row's origin: no row holds it.
        let offset = origin.checked_sub(first)?;
        if let Some(&second) = rest.first() {
            let flat = offset / (second - first);
            if self.origins.get(flat) == Some(&origin) {
                return Some(flat);
            }
        }
        self.origins.binary_search(&origin).ok()
    }

    /// The arrays holding at least one row, with their indices.
    fn occupied_arrays(&self) -> impl Iterator<Item = (usize, &CamArray)> {
        self.arrays
            .iter()
            .enumerate()
            .filter(|(_, array)| array.rows() > 0)
    }

    /// Walks `mask`'s rows once, grouped by the array that owns them:
    /// arrays in index order, rows ascending within each — the order a
    /// full walk reaches them in. `search` runs on every array owning a
    /// masked row, with that array's row indices; arrays owning none are
    /// skipped without being visited.
    fn walk_mask(&self, mask: &RowMask, mut search: impl FnMut(usize, &[usize])) {
        assert_eq!(
            mask.len(),
            self.origins.len(),
            "mask must cover the stored rows"
        );
        let mut pending = mask.ones_within(0..mask.len());
        let mut rows: Vec<usize> = Vec::new();
        while let Some(&first) = pending.first() {
            // The last array starting at or before `first` owns it (empty
            // arrays share their successor's start and come before it).
            let array_idx = self.row_starts.partition_point(|&start| start <= first) - 1;
            let (base, end) = (self.row_starts[array_idx], self.row_starts[array_idx + 1]);
            let owned = pending.partition_point(|&flat| flat < end);
            rows.clear();
            rows.extend(pending[..owned].iter().map(|&flat| flat - base));
            pending = &pending[owned..];
            search(array_idx, &rows);
        }
    }

    /// Adds one array search to a read's result: its energy, one search
    /// operation, the parallel-latency bound, and its matched rows.
    fn absorb(&self, result: &mut DeviceSearchResult, array_idx: usize, outcome: &SearchOutcome) {
        let array = &self.arrays[array_idx];
        let base = self.row_starts[array_idx];
        result.stats.energy_j += outcome.energy_j;
        result.stats.array_searches += 1;
        result.stats.latency_s = result
            .stats
            .latency_s
            .max(array.sense().cam().search_time_s());
        result
            .matches
            .extend(
                outcome
                    .rows
                    .iter()
                    .filter(|row| row.matched)
                    .map(|row| DeviceMatch {
                        id: RowId {
                            array: array_idx,
                            row: row.row,
                        },
                        origin: self.origins[base + row.row],
                        n_mis: row.n_mis,
                    }),
            );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use asmcap_circuit::rng;
    use asmcap_genome::{ErrorProfile, GenomeModel, ReadSampler};

    fn small_device() -> AsmcapDevice {
        DeviceBuilder::new()
            .arrays(4)
            .rows_per_array(16)
            .row_width(64)
            .build_asmcap()
    }

    fn packed(seq: &DnaSeq) -> PackedSeq {
        PackedSeq::from_seq(seq)
    }

    #[test]
    fn capacity_accounting() {
        let device = small_device();
        assert_eq!(device.capacity_rows(), 64);
        assert_eq!(device.row_width(), 64);
        assert_eq!(device.reference_capacity(64), 64 * 64);
        assert_eq!(device.reference_capacity(1), 63 + 64);
    }

    #[test]
    fn store_spills_across_arrays() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(40, 64, 32), 3);
        let stored = device.store_reference(&genome, 32).unwrap();
        assert_eq!(stored, 40);
        assert_eq!(device.stored_rows(), 40);
        // 16 rows per array: rows spill into the third array.
        assert_eq!(device.arrays()[0].rows(), 16);
        assert_eq!(device.arrays()[1].rows(), 16);
        assert_eq!(device.arrays()[2].rows(), 8);
        // A second reference starts partway through the third array: it
        // fills that array's 8 free rows, then spills into the fourth.
        let second = GenomeModel::uniform().generate(offset_len(12, 64, 64), 4);
        assert_eq!(device.store_reference(&second, 64).unwrap(), 12);
        let rows: Vec<usize> = device.arrays().iter().map(CamArray::rows).collect();
        assert_eq!(rows, vec![16, 16, 16, 4]);
        let origin = |array, row| device.origin_of(RowId { array, row });
        assert_eq!(origin(0, 0), Some(0));
        assert_eq!(origin(2, 7), Some(39 * 32), "first reference's last row");
        assert_eq!(origin(2, 8), Some(0), "second reference's first row");
        assert_eq!(origin(2, 15), Some(7 * 64));
        assert_eq!(origin(3, 0), Some(8 * 64));
        assert_eq!(origin(3, 3), Some(11 * 64));
        assert_eq!(origin(3, 4), None);
        assert_eq!(
            device.arrays()[2].stored_row(8),
            Some(second.window(0..64).into_bases())
        );
    }

    fn offset_len(rows: usize, width: usize, stride: usize) -> usize {
        (rows - 1) * stride + width
    }

    #[test]
    fn store_rejects_overflow_atomically() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(10_000, 4);
        let err = device.store_reference(&genome, 1).unwrap_err();
        assert!(err.required_rows > err.available_rows);
        assert_eq!(device.stored_rows(), 0);
    }

    #[test]
    fn search_locates_origin() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 7);
        device.store_reference(&genome, 16).unwrap();
        let mut rng = rng(11);
        // Read taken exactly at row 20's origin = 20 * 16 = 320.
        let read = packed(&genome.window(320..384));
        let result = device.search(&read, 0, MatchMode::EdStar, None, &mut rng, None);
        assert!(
            result
                .matches
                .iter()
                .any(|m| m.origin == 320 && m.n_mis == 0),
            "expected an exact match at origin 320, got {:?}",
            result.matches
        );
        assert!(result.stats.energy_j > 0.0);
        assert!(result.stats.latency_s > 0.0);
        assert_eq!(result.stats.array_searches, 4);
    }

    #[test]
    fn origin_of_maps_row_ids() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(20, 64, 64), 9);
        device.store_reference(&genome, 64).unwrap();
        assert_eq!(device.origin_of(RowId { array: 0, row: 3 }), Some(192));
        assert_eq!(
            device.origin_of(RowId { array: 1, row: 2 }),
            Some((16 + 2) * 64)
        );
        assert_eq!(device.origin_of(RowId { array: 3, row: 0 }), None);
    }

    #[test]
    fn full_mask_search_is_byte_identical_to_unmasked() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 15);
        device.store_reference(&genome, 16).unwrap();
        let read = packed(&genome.window(320..384));
        let mask = RowMask::full(device.stored_rows());
        for t in [0usize, 2, 6] {
            let mut rng_a = rng(21);
            let mut rng_b = rng(21);
            for mode in [MatchMode::EdStar, MatchMode::Hamming] {
                // The second mode searches from the streams the first left
                // behind, proving the RNGs stayed in lockstep.
                assert_eq!(
                    device.search(&read, t, mode, None, &mut rng_a, None),
                    device.search(&read, t, mode, Some(&mask), &mut rng_b, None),
                    "full mask diverged at T={t} in {mode} mode"
                );
            }
        }
    }

    #[test]
    fn masked_search_touches_only_masked_rows() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 16);
        device.store_reference(&genome, 16).unwrap();
        let read = packed(&genome.window(320..384));
        // Shortlist exactly the true origin: one row, one array searched.
        let mask = device.mask_for_origins(&[320]);
        assert_eq!(mask.count_ones(), 1);
        let mut noise = rng(22);
        let result = device.search(&read, 1, MatchMode::EdStar, Some(&mask), &mut noise, None);
        assert_eq!(result.stats.array_searches, 1, "idle arrays must be gated");
        assert!(result
            .matches
            .iter()
            .any(|m| m.origin == 320 && m.n_mis == 0));
        // Energy scales with sensed rows: far below the full search.
        let mut noise = rng(22);
        let full = device.search(&read, 1, MatchMode::EdStar, None, &mut noise, None);
        assert!(result.stats.energy_j < full.stats.energy_j / 4.0);

        // An all-clear mask issues no search at all.
        let mut noise = rng(23);
        let empty = RowMask::new(device.stored_rows());
        let none = device.search(&read, 1, MatchMode::EdStar, Some(&empty), &mut noise, None);
        assert_eq!(none.stats.array_searches, 0);
        assert_eq!(none.stats.energy_j, 0.0);
        assert!(none.matches.is_empty());
    }

    #[test]
    fn batched_device_search_is_byte_identical_to_sequential() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 41);
        device.store_reference(&genome, 16).unwrap();
        let reads: Vec<PackedSeq> = (0..6)
            .map(|i| packed(&genome.window(i * 100..i * 100 + 64)))
            .collect();
        for t in [0usize, 2, 6] {
            let mut batch_rngs: Vec<_> = (0..6).map(|i| rng(500 + i)).collect();
            let batched = device.search_packed_batch(&reads, t, MatchMode::EdStar, &mut batch_rngs);
            for (i, read) in reads.iter().enumerate() {
                let mut solo_rng = rng(500 + i as u64);
                let solo = device.search(read, t, MatchMode::EdStar, None, &mut solo_rng, None);
                assert_eq!(batched[i], solo, "read {i} diverged at T={t}");
                assert_eq!(next_draw(&mut batch_rngs[i]), next_draw(&mut solo_rng));
            }
        }
    }

    #[test]
    fn batched_masked_search_is_byte_identical_to_sequential_masked() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 42);
        device.store_reference(&genome, 16).unwrap();
        let reads: Vec<PackedSeq> = (0..4)
            .map(|i| packed(&genome.window(i * 160..i * 160 + 64)))
            .collect();
        // Per-read masks of very different sizes: an adversarially skewed
        // shortlist (read 0 senses almost everything, read 3 one row).
        let masks: Vec<RowMask> = (0..4)
            .map(|i| {
                let mut mask = RowMask::new(device.stored_rows());
                for row in (0..device.stored_rows()).step_by(i * 8 + 1) {
                    mask.set(row);
                }
                mask
            })
            .collect();
        let mut batch_rngs: Vec<_> = (0..4).map(|i| rng(900 + i)).collect();
        let batched = device.search_packed_batch_masked(
            &reads,
            2,
            MatchMode::EdStar,
            &masks,
            &mut batch_rngs,
        );
        for (i, read) in reads.iter().enumerate() {
            let mut solo_rng = rng(900 + i as u64);
            let solo = device.search(
                read,
                2,
                MatchMode::EdStar,
                Some(&masks[i]),
                &mut solo_rng,
                None,
            );
            assert_eq!(batched[i], solo, "masked read {i} diverged");
        }
        // A batch whose masks are all-set degenerates to the unmasked batch.
        let full: Vec<RowMask> = (0..4)
            .map(|_| RowMask::full(device.stored_rows()))
            .collect();
        let mut a: Vec<_> = (0..4).map(|i| rng(31 + i)).collect();
        let mut b: Vec<_> = (0..4).map(|i| rng(31 + i)).collect();
        assert_eq!(
            device.search_packed_batch_masked(&reads, 2, MatchMode::EdStar, &full, &mut a),
            device.search_packed_batch(&reads, 2, MatchMode::EdStar, &mut b),
        );
    }

    #[test]
    fn mask_for_origins_selects_matching_rows() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(20, 64, 64), 17);
        device.store_reference(&genome, 64).unwrap();
        let mask = device.mask_for_origins(&[0, 192, 640]);
        assert_eq!(mask.count_ones(), 3);
        assert!(mask.get(0) && mask.get(3) && mask.get(10));
        assert!(!mask.get(1));
        // Origins not on the stored grid simply select nothing.
        let empty = device.mask_for_origins(&[1, 65]);
        assert_eq!(empty.count_ones(), 0);
    }

    #[test]
    fn row_mask_ones_in_walks_word_boundaries() {
        let mut mask = RowMask::new(200);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            mask.set(i);
        }
        let all: Vec<usize> = mask.ones_in(0..200).collect();
        assert_eq!(all, vec![0, 1, 63, 64, 65, 127, 128, 199]);
        assert_eq!(mask.ones_in(1..64).collect::<Vec<_>>(), vec![1, 63]);
        assert_eq!(mask.ones_in(64..128).collect::<Vec<_>>(), vec![64, 65, 127]);
        assert_eq!(mask.ones_in(65..65).count(), 0);
        assert_eq!(mask.ones_in(130..199).count(), 0);
        assert_eq!(mask.ones_in(0..500).count(), 8, "range clamps to len");
    }

    /// Reference for the device walk: every array in index order, each
    /// searching the rows the mask admits (all of its rows without a mask)
    /// as an explicit row list, skipping arrays left with none, and
    /// threading the read's fault stream through every array.
    fn array_walk_oracle(
        device: &AsmcapDevice,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        mask: Option<&RowMask>,
        rng: &mut Rng,
        mut fault_rng: Option<&mut Rng>,
    ) -> DeviceSearchResult {
        let mut result = DeviceSearchResult::default();
        let mut tally = FaultTally::default();
        let mut flat_base = 0;
        for (array_idx, array) in device.arrays().iter().enumerate() {
            let rows: Vec<usize> = (0..array.rows())
                .filter(|&row| mask.is_none_or(|mask| mask.get(flat_base + row)))
                .collect();
            flat_base += array.rows();
            if rows.is_empty() {
                continue;
            }
            let fault = fault_rng.as_deref_mut().map(|f| (f, &mut tally));
            let outcome = array.search(read, threshold, mode, Some(&rows), rng, fault);
            device.absorb(&mut result, array_idx, &outcome);
        }
        result.stats.resensed = tally.resensed;
        result.stats.requarried = tally.requarried;
        result
    }

    fn next_draw(rng: &mut Rng) -> u64 {
        rand::Rng::gen(rng)
    }

    fn mask_of(len: usize, rows: &[usize]) -> RowMask {
        let mut mask = RowMask::new(len);
        for &row in rows {
            mask.set(row);
        }
        mask
    }

    #[test]
    fn device_search_matches_the_array_walk_oracle() {
        use rand::Rng as _;
        // 60 rows over five 16-row arrays: arrays 0-2 full, array 3 holds
        // 12 rows and array 4 none.
        let mut device = DeviceBuilder::new()
            .arrays(5)
            .rows_per_array(16)
            .row_width(64)
            .build_asmcap();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 57);
        device.store_reference(&genome, 16).unwrap();
        let n = device.stored_rows();
        let sampler = ReadSampler::new(64, ErrorProfile::condition_a());
        let mut cases = rng(58);
        let (mut matched, mut mitigated) = (0, 0);
        for plan in [FaultPlan::none(), FaultPlan::paper_corner(59)] {
            device.install_faults(&plan, 4);
            for case in 0..64u64 {
                // Half the reads sit on the stored grid (so rows match),
                // half are foreign.
                let read = if case % 2 == 0 {
                    let origin = cases.gen_range(0..n) * 16;
                    packed(&sampler.sample_at(&genome, origin, &mut cases).bases)
                } else {
                    packed(&GenomeModel::uniform().generate(64, 1_000 + case))
                };
                let mask = match case % 4 {
                    0 => None,
                    1 => Some(RowMask::new(n)),
                    2 => Some(RowMask::full(n)),
                    _ => {
                        let density = [0.03, 0.2, 0.6][cases.gen_range(0..3)];
                        let rows: Vec<usize> = (0..n).filter(|_| cases.gen_bool(density)).collect();
                        Some(mask_of(n, &rows))
                    }
                };
                let threshold = [0usize, 2, 4, 8][cases.gen_range(0..4)];
                let mode = if cases.gen_bool(0.5) {
                    MatchMode::EdStar
                } else {
                    MatchMode::Hamming
                };
                let with_fault_stream = cases.gen_bool(0.75);
                let fault_seed = cases.gen::<u64>();
                let (mut rng_a, mut fault_a) = (rng(case), plan.read_fault_rng(fault_seed));
                let (mut rng_b, mut fault_b) = (rng(case), plan.read_fault_rng(fault_seed));
                let walked = device.search(
                    &read,
                    threshold,
                    mode,
                    mask.as_ref(),
                    &mut rng_a,
                    with_fault_stream.then_some(&mut fault_a),
                );
                let oracle = array_walk_oracle(
                    &device,
                    &read,
                    threshold,
                    mode,
                    mask.as_ref(),
                    &mut rng_b,
                    with_fault_stream.then_some(&mut fault_b),
                );
                let name = format!(
                    "case {case} (faults: {}, fault stream: {with_fault_stream})",
                    plan.is_active()
                );
                assert_eq!(walked, oracle, "{name}");
                assert_eq!(next_draw(&mut rng_a), next_draw(&mut rng_b), "{name}");
                assert_eq!(next_draw(&mut fault_a), next_draw(&mut fault_b), "{name}");
                matched += walked.matches.len();
                mitigated += walked.stats.resensed + walked.stats.requarried;
            }
        }
        // The cases reached the paths they are meant to cover.
        assert!(
            matched > 0 && mitigated > 0,
            "{matched} matches, {mitigated} mitigations"
        );
    }

    #[test]
    fn masked_walk_edges_match_the_array_walk() {
        // 60 rows over 16-row arrays: arrays 0-2 full, array 3 holds 12.
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 54);
        device.store_reference(&genome, 16).unwrap();
        let read = packed(&genome.window(256..320));
        let n = device.stored_rows();
        let cases: [(&str, Vec<usize>, usize); 6] = [
            ("first array only", vec![0, 5, 15], 1),
            ("last occupied array only", vec![48, 59], 1),
            ("straddles one boundary", vec![15, 16], 2),
            ("straddles two boundaries", vec![15, 16, 31, 32, 47, 48], 4),
            ("first and last rows", vec![0, 59], 2),
            ("full", (0..n).collect(), 4),
        ];
        for faulted in [false, true] {
            if faulted {
                device.install_faults(&FaultPlan::paper_corner(19), 4);
            }
            for (name, rows, arrays_hit) in &cases {
                let mask = mask_of(n, rows);
                let (mut rng_a, mut fault_a) = (rng(81), rng(82));
                let (mut rng_b, mut fault_b) = (rng(81), rng(82));
                let walked = device.search(
                    &read,
                    4,
                    MatchMode::EdStar,
                    Some(&mask),
                    &mut rng_a,
                    faulted.then_some(&mut fault_a),
                );
                let oracle = array_walk_oracle(
                    &device,
                    &read,
                    4,
                    MatchMode::EdStar,
                    Some(&mask),
                    &mut rng_b,
                    faulted.then_some(&mut fault_b),
                );
                assert_eq!(walked, oracle, "{name} (faulted: {faulted})");
                assert_eq!(walked.stats.array_searches, *arrays_hit, "{name}");
                assert_eq!(next_draw(&mut rng_a), next_draw(&mut rng_b), "{name}");
                assert_eq!(next_draw(&mut fault_a), next_draw(&mut fault_b), "{name}");
            }
        }
    }

    #[test]
    fn empty_mask_searches_nothing_and_draws_nothing() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 55);
        device.store_reference(&genome, 16).unwrap();
        device.install_faults(&FaultPlan::paper_corner(56), 4);
        let read = packed(&genome.window(0..64));
        let empty = RowMask::new(device.stored_rows());
        let (mut walked, mut fresh) = (rng(91), rng(91));
        let (mut fault_walked, mut fault_fresh) = (rng(92), rng(92));
        let plain = device.search(&read, 4, MatchMode::EdStar, Some(&empty), &mut walked, None);
        let faulted = device.search(
            &read,
            4,
            MatchMode::EdStar,
            Some(&empty),
            &mut walked,
            Some(&mut fault_walked),
        );
        for result in [plain, faulted] {
            assert_eq!(result, DeviceSearchResult::default());
        }
        assert_eq!(next_draw(&mut walked), next_draw(&mut fresh));
        assert_eq!(next_draw(&mut fault_walked), next_draw(&mut fault_fresh));
    }

    #[test]
    fn masked_batches_are_per_read_loops_down_to_the_rng_state() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 56);
        device.store_reference(&genome, 16).unwrap();
        let n = device.stored_rows();
        let reads: Vec<PackedSeq> = (0..5)
            .map(|i| packed(&genome.window(i * 150..i * 150 + 64)))
            .collect();
        let masks = vec![
            RowMask::new(n),
            mask_of(n, &[3]),
            mask_of(n, &[15, 16, 17]),
            RowMask::full(n),
            mask_of(n, &[0, 20, 40, 59]),
        ];
        let mut rngs: Vec<Rng> = (0..5).map(|i| rng(300 + i)).collect();
        let batched =
            device.search_packed_batch_masked(&reads, 4, MatchMode::Hamming, &masks, &mut rngs);
        for (i, (read, mask)) in reads.iter().zip(&masks).enumerate() {
            let mut solo = rng(300 + i as u64);
            let solo_result =
                device.search(read, 4, MatchMode::Hamming, Some(mask), &mut solo, None);
            assert_eq!(batched[i], solo_result, "read {i}");
            assert_eq!(next_draw(&mut rngs[i]), next_draw(&mut solo), "read {i}");
        }
    }

    #[test]
    fn row_mask_set_is_order_and_duplicate_insensitive() {
        let mut forward = RowMask::new(100);
        for i in [3usize, 17, 42, 99] {
            forward.set(i);
        }
        let mut shuffled = RowMask::new(100);
        for i in [42usize, 3, 99, 17, 42, 3, 99] {
            shuffled.set(i);
        }
        assert_eq!(forward, shuffled);
        assert_eq!(shuffled.count_ones(), 4);
        assert!(shuffled.get(3) && shuffled.get(99) && !shuffled.get(4));
        assert!(
            !shuffled.get(100) && !shuffled.get(usize::MAX),
            "out of range is clear"
        );
        assert_eq!(
            shuffled.ones_in(0..100).collect::<Vec<_>>(),
            vec![3, 17, 42, 99]
        );
        assert_eq!((shuffled.len(), shuffled.is_empty()), (100, false));
        assert!(RowMask::new(0).is_empty());
    }

    #[test]
    fn row_mask_ones_in_clamps_every_range_shape() {
        let mask = mask_of(50, &[0, 9, 10, 11, 30, 49]);
        let ones = |range: std::ops::Range<usize>| mask.ones_in(range).collect::<Vec<_>>();
        assert_eq!(ones(9..12), vec![9, 10, 11], "partial, inclusive start");
        assert_eq!(ones(10..30), vec![10, 11], "exclusive end");
        assert_eq!(ones(12..30), Vec::<usize>::new(), "no marked row inside");
        assert_eq!(ones(20..20), Vec::<usize>::new(), "empty range");
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = ones(40..5);
        assert_eq!(reversed, Vec::<usize>::new(), "reversed range");
        assert_eq!(ones(45..1_000), vec![49], "end past the mask");
        assert_eq!(ones(50..1_000), Vec::<usize>::new(), "start past the mask");
        assert_eq!(ones(0..usize::MAX).len(), 6);
        assert_eq!(
            RowMask::full(5).ones_in(1..4).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    #[should_panic(expected = "out of mask")]
    fn row_mask_set_rejects_out_of_range_rows() {
        RowMask::new(4).set(4);
    }

    #[test]
    fn mask_for_origins_equals_a_binary_search_oracle() {
        // Every candidate's rows, found by binary-searching the candidate
        // list for each stored origin.
        let oracle = |device: &AsmcapDevice, candidates: &[usize]| {
            let mut mask = RowMask::new(device.stored_rows());
            for (flat, origin) in device.origins.iter().enumerate() {
                if candidates.binary_search(origin).is_ok() {
                    mask.set(flat);
                }
            }
            mask
        };
        use rand::Rng as _;
        let mut draws = rng(0x0A5C);
        for stride in 1..=16usize {
            for second_reference in [false, true] {
                let mut device = small_device();
                let rows = 20 + stride % 7;
                let genome = GenomeModel::uniform().generate(offset_len(rows, 64, stride), 60);
                device.store_reference(&genome, stride).unwrap();
                if second_reference {
                    device
                        .store_reference(&genome.window(0..64 + 3), 1)
                        .unwrap();
                }
                let end = genome.len() + 2 * stride;
                for _ in 0..24 {
                    // On-grid, off-grid and past-the-end candidates.
                    let mut candidates: Vec<usize> = (0..draws.gen_range(0..9))
                        .map(|_| draws.gen_range(0..end))
                        .collect();
                    candidates.sort_unstable();
                    candidates.dedup();
                    assert_eq!(
                        device.mask_for_origins(&candidates),
                        oracle(&device, &candidates),
                        "stride {stride}, second reference {second_reference}, {candidates:?}"
                    );
                }
            }
        }
        // A single-row first store followed by a second one repeats origin
        // 0: the origins stop strictly ascending and both rows are found.
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(80, 61);
        device.store_reference(&genome.window(0..64), 1).unwrap();
        device.store_reference(&genome, 8).unwrap();
        assert_eq!(device.mask_for_origins(&[0, 8]), oracle(&device, &[0, 8]));
        assert_eq!(device.mask_for_origins(&[0]).count_ones(), 2);
    }

    #[test]
    fn mask_for_origins_survives_a_second_stored_reference() {
        // Two references stored back to back: the flat origin list restarts
        // at 0, so the sorted binary-search fast path must disable itself
        // and the duplicate origin must select *both* rows.
        let mut device = small_device();
        let g1 = GenomeModel::uniform().generate(offset_len(10, 64, 64), 31);
        let g2 = GenomeModel::uniform().generate(offset_len(10, 64, 64), 32);
        device.store_reference(&g1, 64).unwrap();
        device.store_reference(&g2, 64).unwrap();
        let mask = device.mask_for_origins(&[128]);
        assert_eq!(mask.count_ones(), 2, "both stored copies of origin 128");
        assert!(mask.get(2) && mask.get(12));
    }

    #[test]
    fn device_fault_install_is_observable_and_inactive_plan_clears() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 51);
        device.store_reference(&genome, 16).unwrap();
        assert!(!device.has_faults());
        let plan = FaultPlan {
            seed: 2,
            dead_row_rate: 1.0,
            selftest_trials: 3,
            ..FaultPlan::none()
        };
        device.install_faults(&plan, 6);
        assert!(device.has_faults());
        assert_eq!(device.quarantined_rows(), device.stored_rows());
        let read = packed(&genome.window(320..384));
        let result = device.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut rng(1),
            Some(&mut plan.read_fault_rng(1)),
        );
        assert_eq!(result.stats.requarried, device.stored_rows() as u64);
        // Quarantined rows answer exactly: the true origin matches.
        assert!(result.matches.iter().any(|m| m.origin == 320));
        device.install_faults(&FaultPlan::none(), 6);
        assert!(!device.has_faults());
        assert_eq!(device.quarantined_rows(), 0);
    }

    #[test]
    fn faultless_faulted_search_is_byte_identical_to_plain() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 52);
        device.store_reference(&genome, 16).unwrap();
        let read = packed(&genome.window(160..224));
        let plan = FaultPlan::none();
        let mut rng_a = rng(61);
        let mut rng_b = rng(61);
        let plain = device.search(&read, 4, MatchMode::EdStar, None, &mut rng_a, None);
        let faulted = device.search(
            &read,
            4,
            MatchMode::EdStar,
            None,
            &mut rng_b,
            Some(&mut plan.read_fault_rng(61)),
        );
        assert_eq!(plain, faulted);
        assert_eq!(faulted.stats.resensed, 0);
        assert_eq!(faulted.stats.requarried, 0);
    }
}
