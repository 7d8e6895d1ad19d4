//! Streaming hardware models of the filters.
//!
//! Each filter is a 3×3 window operator behind a 64-bit AXI-Stream
//! interface, like the Vivado HLS kernels the paper synthesized. It
//! accepts one 8-pixel input beat per cycle until its frame is
//! complete and keeps the whole received prefix of the frame, so the
//! input side never stalls on the filter. Output beats leave in order
//! at a calibrated pace of 1.79–1.85 cycles per beat
//! ([`crate::library::FilterKind::interval_x100`]); pace credits bank
//! while the filter waits on input, so it can then emit one beat per
//! cycle until they are spent. An output pixel in row `r` becomes
//! available once input row `r+1` has fully arrived, so output trails
//! input by roughly one row — the latency visible in the paper's
//! per-filter compute times.
//!
//! The per-pixel arithmetic is literally the [`crate::golden`] kernel
//! functions, so a hardware run is bit-identical to the reference
//! implementation by construction; the tests verify the streaming
//! machinery (windowing, packing, backpressure, restart, checkpoint)
//! preserves that.
//!
//! The tick runs once per simulated cycle, so it allocates nothing and
//! calls no trait object per pixel: the kernel is a plain `fn`
//! pointer, beats are unpacked and packed through `[u8; 8]`, the input
//! an output beat needs is computed once per beat (readiness is
//! monotone in pixel position, so the beat's last pixel decides), and
//! each window is gathered from three row slices of the received
//! prefix.

use std::sync::Arc;

use rvcap_axi::stream::AxisBeat;
use rvcap_axi::AxisChannel;
use rvcap_fabric::rm::RmBehavior;
use rvcap_sim::state::{StateBlob, StateError, StateValue};
use rvcap_sim::Cycle;

use crate::golden::Window;

/// A streaming 3×3 window filter.
pub struct StreamingFilter {
    name: &'static str,
    kernel: fn(&Window) -> u8,
    width: usize,
    height: usize,
    /// Received input pixels (a row-major prefix of the image).
    inbuf: Vec<u8>,
    /// Output pixels already emitted.
    out_pos: usize,
    /// Input pixels the beat starting at `out_pos` needs (derived from
    /// `out_pos` by [`StreamingFilter::seek_output`]).
    beat_needs: usize,
    /// Processing pace: cycles per output beat × 100 (100 = II of 1).
    interval_x100: u64,
    credits: u64,
    /// Images completed since configuration.
    frames_done: u64,
}

impl StreamingFilter {
    /// Create a filter for `width`×`height` frames.
    pub fn new(
        name: &'static str,
        kernel: fn(&Window) -> u8,
        width: usize,
        height: usize,
        interval_x100: u64,
    ) -> Self {
        assert!(width >= 2 && height >= 2, "window needs a 2×2 minimum");
        assert!(interval_x100 >= 100, "cannot emit faster than 1 beat/cycle");
        let mut filter = StreamingFilter {
            name,
            kernel,
            width,
            height,
            inbuf: Vec::with_capacity(width * height),
            out_pos: 0,
            beat_needs: 0,
            interval_x100,
            credits: 0,
            frames_done: 0,
        };
        filter.seek_output(0);
        filter
    }

    /// Images completed since the last reset.
    pub fn frames_done(&self) -> u64 {
        self.frames_done
    }

    fn total(&self) -> usize {
        self.width * self.height
    }

    /// Input pixels output pixel `pos` needs: every row up to the one
    /// below it. Monotone in `pos`: a later pixel never needs less.
    fn input_needed(&self, pos: usize) -> usize {
        let needed_row = (pos / self.width + 1).min(self.height - 1);
        (needed_row + 1) * self.width
    }

    /// Move the output position to `pos`. The beat starting there is
    /// ready once its last pixel is, so its need is computed once here
    /// rather than tested per pixel on every tick.
    fn seek_output(&mut self, pos: usize) {
        self.out_pos = pos;
        let last = (pos + 8).min(self.total()) - 1;
        self.beat_needs = self.input_needed(last);
    }

    /// Rows `r - 1`, `r` and `r + 1` of the received prefix, with the
    /// border rows replicated.
    fn rows(&self, r: usize) -> [&[u8]; 3] {
        let w = self.width;
        let row = |i: usize| &self.inbuf[i * w..(i + 1) * w];
        [
            row(r.saturating_sub(1)),
            row(r),
            row((r + 1).min(self.height - 1)),
        ]
    }

    /// Filter the next `out.len()` output pixels, from `out_pos` on.
    fn compute_beat(&self, out: &mut [u8]) {
        let w = self.width;
        let (mut r, mut c) = (self.out_pos / w, self.out_pos % w);
        let mut rows = self.rows(r);
        for px in out {
            if c == w {
                (r, c) = (r + 1, 0);
                rows = self.rows(r);
            }
            let (cl, cr) = (c.saturating_sub(1), (c + 1).min(w - 1));
            let [a, b, d] = rows;
            let win = [a[cl], a[c], a[cr], b[cl], b[c], b[cr], d[cl], d[c], d[cr]];
            *px = (self.kernel)(&win);
            c += 1;
        }
    }
}

impl RmBehavior for StreamingFilter {
    fn name(&self) -> &str {
        self.name
    }

    fn tick(&mut self, cycle: Cycle, input: &AxisChannel, output: &AxisChannel) {
        let total = self.total();
        // Ingest one beat per cycle.
        if self.inbuf.len() < total {
            if let Some(beat) = input.try_pop(cycle) {
                let take = (total - self.inbuf.len()).min(beat.bytes as usize);
                self.inbuf
                    .extend_from_slice(&beat.data.to_le_bytes()[..take]);
            }
        }
        // Emit at the configured pace.
        self.credits += 100;
        if self.credits < self.interval_x100 {
            return;
        }
        let remaining = total - self.out_pos;
        if remaining == 0 {
            return;
        }
        if self.inbuf.len() < self.beat_needs {
            return; // waiting on input rows
        }
        if !output.can_push(cycle) {
            return; // downstream backpressure
        }
        let beat_len = remaining.min(8);
        let mut bytes = [0u8; 8];
        self.compute_beat(&mut bytes[..beat_len]);
        let last = remaining == beat_len;
        output
            .try_push(cycle, AxisBeat::from_bytes(&bytes[..beat_len], last))
            .expect("can_push checked");
        self.credits -= self.interval_x100;
        if last {
            // Frame complete: ready for the next image.
            self.inbuf.clear();
            self.credits = 0;
            self.frames_done += 1;
            self.seek_output(0);
        } else {
            self.seek_output(self.out_pos + beat_len);
        }
    }

    fn busy(&self) -> bool {
        // Mid-frame with enough input to make progress.
        self.out_pos < self.total() && self.inbuf.len() >= self.input_needed(self.out_pos)
    }

    fn reset(&mut self) {
        self.inbuf.clear();
        self.credits = 0;
        self.frames_done = 0;
        self.seek_output(0);
    }

    fn save_state(&self) -> StateValue {
        let mut b = StateBlob::new("accel.streaming_filter", 1);
        b.put_bytes("inbuf", Arc::new(self.inbuf.clone()));
        b.put_u64("out_pos", self.out_pos as u64);
        b.put_u64("credits", self.credits);
        b.put_u64("frames_done", self.frames_done);
        StateValue::Blob(Box::new(b))
    }

    fn restore_state(&mut self, v: &StateValue) -> Result<(), StateError> {
        let b = v.as_blob("accel.streaming_filter")?;
        b.expect("accel.streaming_filter", 1)?;
        let inbuf = b.get_bytes("inbuf")?;
        let out_pos = b.get_u64("out_pos")? as usize;
        if inbuf.len() > self.total() || out_pos >= self.total() {
            return Err(b.structure_error(format!(
                "{} input pixels, {out_pos} emitted: does not fit a {}x{} frame",
                inbuf.len(),
                self.width,
                self.height
            )));
        }
        self.inbuf.clear();
        self.inbuf.extend_from_slice(inbuf);
        self.seek_output(out_pos);
        self.credits = b.get_u64("credits")?;
        self.frames_done = b.get_u64("frames_done")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use crate::image::Image;
    use crate::library::FilterKind;
    use proptest::prelude::*;
    use rvcap_axi::stream::{pack_bytes, unpack_bytes};
    use rvcap_sim::Fifo;

    /// Drive a behaviour directly with a manual clock.
    fn run_filter(filter: &mut StreamingFilter, img: &Image) -> Vec<u8> {
        let input: AxisChannel = Fifo::new("in", 1 << 16);
        let output: AxisChannel = Fifo::new("out", 1 << 16);
        for b in pack_bytes(img.as_bytes(), 8) {
            input.force_push(b);
        }
        let mut out = Vec::new();
        for cycle in 0..(img.width() * img.height() * 8) as u64 {
            filter.tick(cycle, &input, &output);
            while let Some(b) = output.force_pop() {
                out.push(b);
            }
            if !out.is_empty() && out.last().unwrap().last {
                break;
            }
        }
        unpack_bytes(&out)
    }

    #[test]
    fn streaming_gaussian_matches_golden() {
        let img = Image::noise(24, 16, 7);
        let mut f = StreamingFilter::new("Gaussian", golden::gaussian_pixel, 24, 16, 100);
        assert_eq!(run_filter(&mut f, &img), golden::gaussian(&img).as_bytes());
    }

    #[test]
    fn streaming_median_matches_golden() {
        let img = Image::noise(16, 16, 9);
        let mut f = StreamingFilter::new("Median", golden::median_pixel, 16, 16, 100);
        assert_eq!(run_filter(&mut f, &img), golden::median(&img).as_bytes());
    }

    #[test]
    fn streaming_sobel_matches_golden() {
        let img = Image::checkerboard(32, 8, 4);
        let mut f = StreamingFilter::new("Sobel", golden::sobel_pixel, 32, 8, 100);
        assert_eq!(run_filter(&mut f, &img), golden::sobel(&img).as_bytes());
    }

    #[test]
    fn ragged_width_images_work() {
        // Width not a multiple of the 8-pixel beat.
        let img = Image::noise(20, 6, 3);
        let mut f = StreamingFilter::new("Gaussian", golden::gaussian_pixel, 20, 6, 100);
        assert_eq!(run_filter(&mut f, &img), golden::gaussian(&img).as_bytes());
    }

    #[test]
    fn back_to_back_frames_without_reset() {
        let a = Image::noise(16, 8, 1);
        let b = Image::noise(16, 8, 2);
        let mut f = StreamingFilter::new("Median", golden::median_pixel, 16, 8, 100);
        assert_eq!(run_filter(&mut f, &a), golden::median(&a).as_bytes());
        assert_eq!(run_filter(&mut f, &b), golden::median(&b).as_bytes());
        assert_eq!(f.frames_done(), 2);
    }

    #[test]
    fn slower_interval_still_correct() {
        let img = Image::noise(16, 8, 5);
        let mut f = StreamingFilter::new("Gaussian", golden::gaussian_pixel, 16, 8, 250);
        assert_eq!(run_filter(&mut f, &img), golden::gaussian(&img).as_bytes());
    }

    #[test]
    fn output_trails_input_by_about_a_row() {
        let img = Image::noise(16, 8, 11);
        let input: AxisChannel = Fifo::new("in", 1 << 12);
        let output: AxisChannel = Fifo::new("out", 1 << 12);
        let mut f = StreamingFilter::new("Gaussian", golden::gaussian_pixel, 16, 8, 100);
        for b in pack_bytes(img.as_bytes(), 8) {
            input.force_push(b);
        }
        // Row 0's output needs rows 0 and 1 complete — 4 beats of 8
        // pixels at width 16. With one beat ingested per tick, output
        // cannot start before the 4th tick...
        for cycle in 0..3 {
            f.tick(cycle, &input, &output);
        }
        assert!(output.is_empty(), "row 1 incomplete: no output yet");
        // ...and starts right then.
        for cycle in 3..5 {
            f.tick(cycle, &input, &output);
        }
        assert!(!output.is_empty(), "row 0 output should have started");
    }

    #[test]
    fn reset_clears_mid_frame_state() {
        let img = Image::noise(16, 8, 13);
        let input: AxisChannel = Fifo::new("in", 1 << 12);
        let output: AxisChannel = Fifo::new("out", 1 << 12);
        let mut f = StreamingFilter::new("Sobel", golden::sobel_pixel, 16, 8, 100);
        for b in pack_bytes(img.as_bytes(), 8).into_iter().take(6) {
            input.force_push(b);
        }
        for cycle in 0..10 {
            f.tick(cycle, &input, &output);
        }
        f.reset();
        assert!(!f.busy());
        assert_eq!(f.frames_done(), 0);
        // A fresh full frame still comes out right.
        assert_eq!(run_filter(&mut f, &img), golden::sobel(&img).as_bytes());
    }

    #[test]
    fn checkpoint_resumes_mid_frame() {
        let img = Image::noise(20, 12, 17);
        let beats = pack_bytes(img.as_bytes(), 8);
        let kind = FilterKind::Median;
        let mk = || StreamingFilter::new("Median", kind.kernel(), 20, 12, kind.interval_x100());
        let input: AxisChannel = Fifo::new("in", 1 << 12);
        let output: AxisChannel = Fifo::new("out", 1 << 12);
        for b in &beats {
            input.force_push(*b);
        }
        let mut straight = mk();
        for cycle in 0..20 {
            straight.tick(cycle, &input, &output);
        }
        assert!(
            !output.is_empty() && straight.busy(),
            "checkpoint is mid-frame"
        );
        let mut forked = mk();
        forked.reset();
        forked.restore_state(&straight.save_state()).unwrap();
        assert_eq!(forked.save_state(), straight.save_state());
        // Each copy continues on its own channels from the same point.
        let fork_in: AxisChannel = Fifo::new("in", 1 << 12);
        let fork_out: AxisChannel = Fifo::new("out", 1 << 12);
        for b in &beats[input.total_popped() as usize..] {
            fork_in.force_push(*b);
        }
        let mut emitted = [Vec::new(), Vec::new()];
        for cycle in 20..200 {
            for (k, (f, i, o)) in [
                (&mut straight, &input, &output),
                (&mut forked, &fork_in, &fork_out),
            ]
            .into_iter()
            .enumerate()
            {
                let before = o.total_pushed();
                f.tick(cycle, i, o);
                if o.total_pushed() > before {
                    emitted[k].push(cycle);
                }
            }
        }
        assert_eq!(emitted[0], emitted[1]);
        assert_eq!(straight.frames_done(), 1);
        assert_eq!(forked.frames_done(), 1);
        let mut tail = Vec::new();
        while let Some(b) = fork_out.force_pop() {
            tail.push(b);
        }
        let mut all = Vec::new();
        while let Some(b) = output.force_pop() {
            all.push(b);
        }
        let want = golden::median(&img);
        assert_eq!(unpack_bytes(&all), want.as_bytes());
        assert!(want.as_bytes().ends_with(&unpack_bytes(&tail)));
    }

    #[test]
    fn restore_rejects_a_prefix_longer_than_the_frame() {
        let mut big = StreamingFilter::new("Sobel", golden::sobel_pixel, 16, 8, 100);
        let img = Image::noise(16, 8, 3);
        let input: AxisChannel = Fifo::new("in", 64);
        let output: AxisChannel = Fifo::new("out", 64);
        for b in pack_bytes(img.as_bytes(), 8) {
            input.force_push(b);
        }
        for cycle in 0..12 {
            big.tick(cycle, &input, &output);
        }
        let mut small = StreamingFilter::new("Sobel", golden::sobel_pixel, 8, 8, 100);
        assert!(matches!(
            small.restore_state(&big.save_state()),
            Err(StateError::Structure { .. })
        ));
    }

    /// The filter's earlier per-pixel tick, kept as the reference the
    /// fast path is checked against: it tests readiness for every
    /// pixel, reads each window through nine clamped taps and
    /// allocates two vectors per beat.
    struct PerPixelFilter {
        kernel: fn(&Window) -> u8,
        width: usize,
        height: usize,
        inbuf: Vec<u8>,
        out_pos: usize,
        interval_x100: u64,
        credits: u64,
    }

    impl PerPixelFilter {
        fn total(&self) -> usize {
            self.width * self.height
        }

        fn computable(&self, pos: usize) -> bool {
            let r = pos / self.width;
            let needed_row = (r + 1).min(self.height - 1);
            self.inbuf.len() >= (needed_row + 1) * self.width
        }

        fn compute(&self, pos: usize) -> u8 {
            let (w, h) = (self.width as isize, self.height as isize);
            let tap = |r: isize, c: isize| {
                self.inbuf[(r.clamp(0, h - 1) * w + c.clamp(0, w - 1)) as usize]
            };
            let (r, c) = ((pos / self.width) as isize, (pos % self.width) as isize);
            let win: Window =
                std::array::from_fn(|i| tap(r + i as isize / 3 - 1, c + i as isize % 3 - 1));
            (self.kernel)(&win)
        }
    }

    impl RmBehavior for PerPixelFilter {
        fn name(&self) -> &str {
            "per-pixel reference"
        }

        fn tick(&mut self, cycle: Cycle, input: &AxisChannel, output: &AxisChannel) {
            if self.inbuf.len() < self.total() {
                if let Some(beat) = input.try_pop(cycle) {
                    let take = (self.total() - self.inbuf.len()).min(beat.bytes as usize);
                    self.inbuf.extend_from_slice(&beat.to_bytes()[..take]);
                }
            }
            self.credits += 100;
            if self.credits < self.interval_x100 {
                return;
            }
            let remaining = self.total() - self.out_pos;
            if remaining == 0 {
                return;
            }
            let beat_len = remaining.min(8);
            if !(0..beat_len).all(|i| self.computable(self.out_pos + i)) {
                return;
            }
            if !output.can_push(cycle) {
                return;
            }
            let bytes: Vec<u8> = (0..beat_len)
                .map(|i| self.compute(self.out_pos + i))
                .collect();
            let last = remaining == beat_len;
            output
                .try_push(cycle, AxisBeat::from_bytes(&bytes, last))
                .expect("can_push checked");
            self.out_pos += beat_len;
            self.credits -= self.interval_x100;
            if last {
                self.inbuf.clear();
                self.out_pos = 0;
                self.credits = 0;
            }
        }

        fn busy(&self) -> bool {
            self.out_pos < self.total() && self.computable(self.out_pos)
        }

        fn reset(&mut self) {
            self.inbuf.clear();
            self.out_pos = 0;
            self.credits = 0;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The fast path and the per-pixel reference, fed the same
        /// beats with random input gaps and output stalls, emit the
        /// same beats at the same cycles: through a reset in the
        /// middle of a frame, then two back-to-back frames, whose
        /// output equals the golden filter.
        #[test]
        fn fast_path_matches_per_pixel_reference(
            width in 2usize..=40,
            height in 2usize..=40,
            interval_x100 in 100u64..=400,
            kind in 0usize..3,
            seed in any::<u64>(),
            gap_pct in 0u64..70,
            stall_pct in 0u64..70,
            cut_pct in 0usize..=100,
        ) {
            let kind = FilterKind::ALL[kind];
            let frames: Vec<Image> = (0..3).map(|i| Image::noise(width, height, seed ^ i)).collect();
            let beats: Vec<Vec<AxisBeat>> =
                frames.iter().map(|f| pack_bytes(f.as_bytes(), 8)).collect();
            let per_frame = beats[0].len();
            // The reset lands once `cut` beats of frame 0 went in.
            let cut = 1 + (per_frame - 1) * cut_pct / 100;
            let feed: Vec<AxisBeat> =
                beats[0][..cut].iter().chain(&beats[1]).chain(&beats[2]).copied().collect();

            let mut fast =
                StreamingFilter::new(kind.name(), kind.kernel(), width, height, interval_x100);
            let mut reference = PerPixelFilter {
                kernel: kind.kernel(),
                width,
                height,
                inbuf: Vec::new(),
                out_pos: 0,
                interval_x100,
                credits: 0,
            };
            let mut models: [&mut dyn RmBehavior; 2] = [&mut fast, &mut reference];
            let chans: [(AxisChannel, AxisChannel); 2] =
                std::array::from_fn(|_| (Fifo::new("in", 4), Fifo::new("out", 2)));
            let mut rng = seed | 1;
            let mut roll = |pct: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % 100 < pct
            };
            let (mut before_reset, mut after_reset) = (Vec::new(), Vec::new());
            let (mut fed, mut reset_done, mut frames_out) = (0, false, 0);
            let limit = 50 * feed.len() as Cycle + 1_000;
            let mut cycle: Cycle = 0;
            while frames_out < 2 {
                prop_assert!(cycle < limit, "no second frame by cycle {cycle}");
                if !reset_done && fed == cut {
                    let drained: Vec<Vec<AxisBeat>> = chans
                        .iter()
                        .map(|(i, o)| {
                            i.clear();
                            std::iter::from_fn(|| o.force_pop()).collect()
                        })
                        .collect();
                    prop_assert_eq!(&drained[0], &drained[1], "output queued at the reset");
                    before_reset.extend_from_slice(&drained[0]);
                    models.iter_mut().for_each(|m| m.reset());
                    reset_done = true;
                }
                if fed < feed.len() && !roll(gap_pct) {
                    let pushed: Vec<bool> =
                        chans.iter().map(|(i, _)| i.try_push(cycle, feed[fed]).is_ok()).collect();
                    prop_assert_eq!(pushed[0], pushed[1], "input accepted at cycle {}", cycle);
                    fed += pushed[0] as usize;
                }
                let mut emitted = [false; 2];
                for (k, m) in models.iter_mut().enumerate() {
                    let (i, o) = &chans[k];
                    let before = o.total_pushed();
                    m.tick(cycle, i, o);
                    emitted[k] = o.total_pushed() > before;
                }
                prop_assert_eq!(emitted[0], emitted[1], "emission at cycle {}", cycle);
                prop_assert_eq!(models[0].busy(), models[1].busy(), "busy at cycle {}", cycle);
                if !roll(stall_pct) {
                    let popped: Vec<Option<AxisBeat>> =
                        chans.iter().map(|(_, o)| o.try_pop(cycle)).collect();
                    prop_assert_eq!(popped[0], popped[1], "beat at cycle {}", cycle);
                    if let Some(b) = popped[0] {
                        if reset_done {
                            after_reset.push(b);
                            frames_out += b.last as usize;
                        } else {
                            before_reset.push(b);
                        }
                    }
                }
                cycle += 1;
            }
            let golden0 = kind.golden(&frames[0]);
            prop_assert!(golden0.as_bytes().starts_with(&unpack_bytes(&before_reset)));
            let mut want = kind.golden(&frames[1]).as_bytes().to_vec();
            want.extend_from_slice(kind.golden(&frames[2]).as_bytes());
            prop_assert_eq!(unpack_bytes(&after_reset), want);
            let lasts: Vec<usize> = (0..after_reset.len()).filter(|&i| after_reset[i].last).collect();
            prop_assert_eq!(lasts, vec![per_frame - 1, 2 * per_frame - 1]);
            prop_assert_eq!(fast.frames_done(), 2);
        }
    }
}
