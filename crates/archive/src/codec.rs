//! The byte-level codec: little-endian primitives plus one
//! encode/decode pair per report type.
//!
//! Encoding appends to a caller-owned `Vec<u8>` (blocks are buffered,
//! length-prefixed and flushed by the writer). Decoding reads from a
//! bounds-checked cursor over an in-memory block and **never panics**:
//! every count is checked against the bytes that remain before anything
//! is allocated, every enum tag is matched exhaustively, and every
//! value range a core constructor asserts (fractions in `[0, 1]`,
//! monotone reward tables, ordered tariffs, non-inverted intervals) is
//! validated first so the constructor's own assertion can never fire on
//! attacker- or bitrot-shaped bytes.
//! The levels format v2 stores with each Utility Agent configuration
//! and reward table are the cut-down grid's, [`LEVELS`]: any other count
//! or bit pattern (`-0.0` is not `0.0`) is corrupt.

use crate::error::{corrupt, truncated, ArchiveError};
use loadbal_core::beta::BetaPolicy;
use loadbal_core::campaign::{CampaignEconomics, DayOutcome, IntervalOutcome};
use loadbal_core::concession::{NegotiationStatus, TerminationReason};
use loadbal_core::methods::AnnouncementMethod;
use loadbal_core::preferences::CustomerPreferences;
use loadbal_core::reward::{RewardFormula, RewardTable, LEVELS};
use loadbal_core::session::{
    CustomerProfile, NegotiationReport, ReportTier, RoundDigest, RoundRecord, Scenario, Settlement,
};
use loadbal_core::utility_agent::{EconomicStopRule, TableShape, UtilityAgentConfig};
use powergrid::calendar::{CalendarDay, DayType};
use powergrid::peak::Peak;
use powergrid::tariff::Tariff;
use powergrid::time::Interval;
use powergrid::units::{Fraction, KilowattHours, Money, PricePerKwh};
use powergrid::weather::Season;
use std::sync::Arc;
use std::sync::Mutex;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over one decoded block.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8], context: &'static str) -> Dec<'a> {
        Dec {
            bytes,
            pos: 0,
            context,
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Decoding must consume the whole block — trailing garbage means
    /// the index length and the content disagree.
    pub(crate) fn finish(self) -> Result<(), ArchiveError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after block payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArchiveError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| truncated(self.context))?;
        self.pos += n;
        Ok(slice)
    }

    /// Like [`Dec::take`] but returns a fixed-size array, so the
    /// integer readers need no length-asserting conversion.
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N], ArchiveError> {
        self.take(N)?
            .try_into()
            .map_err(|_| truncated(self.context))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ArchiveError> {
        let [byte] = self.take_n::<1>()?;
        Ok(byte)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ArchiveError> {
        Ok(u16::from_le_bytes(self.take_n::<2>()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ArchiveError> {
        Ok(u32::from_le_bytes(self.take_n::<4>()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ArchiveError> {
        Ok(u64::from_le_bytes(self.take_n::<8>()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ArchiveError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// One fixed-width record of a dictionary run: `W` bit patterns.
    fn record<const W: usize>(&mut self) -> Result<[u64; W], ArchiveError> {
        let mut words = [0; W];
        for word in &mut words {
            *word = self.u64()?;
        }
        Ok(words)
    }

    /// Fails unless `n` more bytes remain.
    fn need(&self, n: usize) -> Result<(), ArchiveError> {
        if n > self.remaining() {
            return Err(truncated(self.context));
        }
        Ok(())
    }

    /// A count that prefixes `min_item_bytes`-sized items: rejected
    /// before any allocation if the remaining bytes cannot possibly
    /// hold it, so corrupt counts never balloon memory.
    pub(crate) fn count(&mut self, min_item_bytes: usize) -> Result<usize, ArchiveError> {
        let n = self.u32()? as usize;
        self.need(n.saturating_mul(min_item_bytes.max(1)))?;
        Ok(n)
    }

    pub(crate) fn str(&mut self) -> Result<String, ArchiveError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not UTF-8"))
    }
}

// ---------------------------------------------------------------------
// Units and small grid types
// ---------------------------------------------------------------------

fn put_fraction(buf: &mut Vec<u8>, v: Fraction) {
    put_f64(buf, v.value());
}

fn fraction(d: &mut Dec) -> Result<Fraction, ArchiveError> {
    fraction_of(d.f64()?)
}

fn fraction_of(v: f64) -> Result<Fraction, ArchiveError> {
    Fraction::new(v).map_err(|_| corrupt("fraction outside [0, 1]"))
}

pub(crate) fn put_interval(buf: &mut Vec<u8>, i: Interval) {
    put_u64(buf, i.start() as u64);
    put_u64(buf, i.end() as u64);
}

pub(crate) fn interval(d: &mut Dec) -> Result<Interval, ArchiveError> {
    let start = d.u64()? as usize;
    let end = d.u64()? as usize;
    if end < start {
        return Err(corrupt("interval end before start"));
    }
    Ok(Interval::new(start, end))
}

fn put_tariff(buf: &mut Vec<u8>, t: &Tariff) {
    put_f64(buf, t.lower().value());
    put_f64(buf, t.normal().value());
    put_f64(buf, t.higher().value());
}

fn tariff(d: &mut Dec) -> Result<Tariff, ArchiveError> {
    let lower = d.f64()?;
    let normal = d.f64()?;
    let higher = d.f64()?;
    // Replicates Tariff::new's assertions as checks (NaN fails both).
    let ordered = lower >= 0.0 && lower <= normal && normal <= higher;
    if !ordered {
        return Err(corrupt("tariff prices unordered or negative"));
    }
    Ok(Tariff::new(
        PricePerKwh(lower),
        PricePerKwh(normal),
        PricePerKwh(higher),
    ))
}

pub(crate) fn put_calendar_day(buf: &mut Vec<u8>, day: CalendarDay) {
    put_u64(buf, day.index);
    put_u8(
        buf,
        match day.day_type {
            DayType::Weekday => 0,
            DayType::Weekend => 1,
        },
    );
    put_u8(
        buf,
        match day.season {
            Season::Winter => 0,
            Season::Spring => 1,
            Season::Summer => 2,
            Season::Autumn => 3,
        },
    );
}

pub(crate) fn calendar_day(d: &mut Dec) -> Result<CalendarDay, ArchiveError> {
    let index = d.u64()?;
    let day_type = match d.u8()? {
        0 => DayType::Weekday,
        1 => DayType::Weekend,
        _ => return Err(corrupt("unknown day type tag")),
    };
    let season = match d.u8()? {
        0 => Season::Winter,
        1 => Season::Spring,
        2 => Season::Summer,
        3 => Season::Autumn,
        _ => return Err(corrupt("unknown season tag")),
    };
    Ok(CalendarDay {
        index,
        day_type,
        season,
    })
}

fn put_peak(buf: &mut Vec<u8>, p: &Peak) {
    put_interval(buf, p.interval);
    put_f64(buf, p.predicted_overuse.value());
    put_f64(buf, p.normal_use.value());
}

fn peak(d: &mut Dec) -> Result<Peak, ArchiveError> {
    Ok(Peak {
        interval: interval(d)?,
        predicted_overuse: KilowattHours(d.f64()?),
        normal_use: KilowattHours(d.f64()?),
    })
}

fn put_method(buf: &mut Vec<u8>, m: AnnouncementMethod) {
    put_u8(
        buf,
        match m {
            AnnouncementMethod::Offer => 0,
            AnnouncementMethod::RequestForBids => 1,
            AnnouncementMethod::RewardTables => 2,
        },
    );
}

fn method(d: &mut Dec) -> Result<AnnouncementMethod, ArchiveError> {
    Ok(match d.u8()? {
        0 => AnnouncementMethod::Offer,
        1 => AnnouncementMethod::RequestForBids,
        2 => AnnouncementMethod::RewardTables,
        _ => return Err(corrupt("unknown announcement-method tag")),
    })
}

pub(crate) fn put_tier(buf: &mut Vec<u8>, t: ReportTier) {
    put_u8(
        buf,
        match t {
            ReportTier::Aggregate => 0,
            ReportTier::Settlement => 1,
            ReportTier::FullTrace => 2,
        },
    );
}

pub(crate) fn tier(d: &mut Dec) -> Result<ReportTier, ArchiveError> {
    Ok(match d.u8()? {
        0 => ReportTier::Aggregate,
        1 => ReportTier::Settlement,
        2 => ReportTier::FullTrace,
        _ => return Err(corrupt("unknown report-tier tag")),
    })
}

fn put_status(buf: &mut Vec<u8>, s: NegotiationStatus) {
    put_u8(
        buf,
        match s {
            NegotiationStatus::Converged(TerminationReason::OveruseAcceptable) => 0,
            NegotiationStatus::Converged(TerminationReason::RewardSaturated) => 1,
            NegotiationStatus::Converged(TerminationReason::NoMovement) => 2,
            NegotiationStatus::Converged(TerminationReason::SingleRound) => 3,
            NegotiationStatus::Converged(TerminationReason::EconomicStop) => 4,
            NegotiationStatus::MaxRoundsExceeded => 5,
        },
    );
}

fn status(d: &mut Dec) -> Result<NegotiationStatus, ArchiveError> {
    Ok(match d.u8()? {
        0 => NegotiationStatus::Converged(TerminationReason::OveruseAcceptable),
        1 => NegotiationStatus::Converged(TerminationReason::RewardSaturated),
        2 => NegotiationStatus::Converged(TerminationReason::NoMovement),
        3 => NegotiationStatus::Converged(TerminationReason::SingleRound),
        4 => NegotiationStatus::Converged(TerminationReason::EconomicStop),
        5 => NegotiationStatus::MaxRoundsExceeded,
        _ => return Err(corrupt("unknown negotiation-status tag")),
    })
}

// ---------------------------------------------------------------------
// The cut-down grid and reward tables
// ---------------------------------------------------------------------

/// Checks a stored level count: the grid's six.
fn grid_count(d: &mut Dec) -> Result<(), ArchiveError> {
    if d.u32()? as usize == LEVELS.len() {
        Ok(())
    } else {
        Err(corrupt("level count is not the cut-down grid's"))
    }
}

/// Checks a stored level against grid level `level`, bit for bit.
fn grid_level(d: &mut Dec, level: f64) -> Result<(), ArchiveError> {
    if d.f64()?.to_bits() == level.to_bits() {
        Ok(())
    } else {
        Err(corrupt("level off the cut-down grid"))
    }
}

/// A table goes on the wire as its interval and its six `(cutdown,
/// reward)` entries behind their count.
fn put_reward_table(buf: &mut Vec<u8>, t: &RewardTable) {
    put_interval(buf, t.interval());
    put_u32(buf, LEVELS.len() as u32);
    for (c, m) in t.entries() {
        put_fraction(buf, *c);
        put_f64(buf, m.value());
    }
}

/// Decodes a table, checking its levels against the grid and its
/// rewards for the order `RewardTable::new` asserts: non-decreasing.
fn reward_table(d: &mut Dec) -> Result<RewardTable, ArchiveError> {
    let interval = interval(d)?;
    grid_count(d)?;
    let mut rewards = [Money::ZERO; LEVELS.len()];
    for (reward, level) in rewards.iter_mut().zip(LEVELS) {
        grid_level(d, level)?;
        *reward = Money(d.f64()?);
    }
    for (prev, next) in rewards.iter().zip(rewards.iter().skip(1)) {
        // NaN rewards must fail too (the core constructor asserts
        // `prev <= next`, which NaN violates).
        let (prev, next) = (prev.value(), next.value());
        if prev.is_nan() || next.is_nan() || prev > next {
            return Err(corrupt("cutdown/reward table rewards decrease"));
        }
    }
    Ok(RewardTable::new(interval, rewards))
}

// ---------------------------------------------------------------------
// Dictionary runs — shared by round bids and report settlements
// ---------------------------------------------------------------------

/// Run tag: the run's records follow raw.
const RUN_RAW: u8 = 0;

/// Run tag: a dictionary of distinct records, then one index per item.
const RUN_DICTIONARY: u8 = 1;

/// The most distinct records a dictionary run holds (its `k` is a `u8`).
const MAX_DICTIONARY: usize = u8::MAX as usize;

fn put_record<const W: usize>(buf: &mut Vec<u8>, record: [u64; W]) {
    for word in record {
        put_u64(buf, word);
    }
}

/// Writes a run of fixed-width records (`W` `f64` bit patterns each):
/// its `u32` count, then — unless the run is empty — a tag. A run of at
/// most 255 distinct records is a dictionary: `k: u8`, the `k` distinct
/// records in first-appearance order, then one `u8` index per item. A
/// run of more distinct records is written raw. Records are compared by
/// bit pattern, so `-0.0` and `0.0` stay apart and every value
/// round-trips exactly.
fn put_run<const W: usize>(
    buf: &mut Vec<u8>,
    records: impl ExactSizeIterator<Item = [u64; W]> + Clone,
) {
    put_u32(buf, records.len() as u32);
    if records.len() == 0 {
        return;
    }
    match dictionary_of(records.clone()) {
        Some((dictionary, indices)) => {
            put_u8(buf, RUN_DICTIONARY);
            put_u8(buf, dictionary.len() as u8);
            for record in dictionary {
                put_record(buf, record);
            }
            buf.extend_from_slice(&indices);
        }
        None => {
            put_u8(buf, RUN_RAW);
            for record in records {
                put_record(buf, record);
            }
        }
    }
}

/// The distinct records in first-appearance order and each record's
/// index among them, or `None` once there are more than 255.
fn dictionary_of<const W: usize>(
    records: impl ExactSizeIterator<Item = [u64; W]>,
) -> Option<(Vec<[u64; W]>, Vec<u8>)> {
    let mut dictionary = Vec::new();
    let mut indices = Vec::with_capacity(records.len());
    for record in records {
        let index = match dictionary.iter().position(|&entry| entry == record) {
            Some(index) => index,
            None => {
                dictionary.push(record);
                dictionary.len() - 1
            }
        };
        if dictionary.len() > MAX_DICTIONARY {
            return None;
        }
        indices.push(index as u8);
    }
    Some((dictionary, indices))
}

/// Reads a run [`put_run`] wrote. `decode` validates and converts each
/// record, and runs once per dictionary entry; every index is checked
/// against the dictionary.
fn run<const W: usize, T: Copy>(
    d: &mut Dec,
    decode: impl Fn([u64; W]) -> Result<T, ArchiveError>,
) -> Result<Vec<T>, ArchiveError> {
    let n = d.count(1)?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let record_bytes = std::mem::size_of::<[u64; W]>();
    match d.u8()? {
        RUN_DICTIONARY => {
            let k = usize::from(d.u8()?);
            d.need(k * record_bytes + n)?;
            let mut dictionary = Vec::with_capacity(k);
            for _ in 0..k {
                dictionary.push(decode(d.record()?)?);
            }
            let mut out = Vec::with_capacity(n);
            for &index in d.take(n)? {
                let value = dictionary.get(usize::from(index));
                out.push(*value.ok_or_else(|| corrupt("run index outside its dictionary"))?);
            }
            Ok(out)
        }
        RUN_RAW => {
            d.need(n.saturating_mul(record_bytes))?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(decode(d.record()?)?);
            }
            Ok(out)
        }
        _ => Err(corrupt("unknown run tag")),
    }
}

// ---------------------------------------------------------------------
// Customer preferences
// ---------------------------------------------------------------------

/// Preferences go on the wire as the two numbers core keeps: the
/// Figure-8 scale and the cut-down ceiling.
fn put_preferences(buf: &mut Vec<u8>, p: &CustomerPreferences) {
    put_f64(buf, p.scale());
    put_fraction(buf, p.max_cutdown());
}

/// Decodes a (scale, ceiling) pair, checking both before
/// `from_base_scaled` can assert on them.
fn preferences(d: &mut Dec) -> Result<CustomerPreferences, ArchiveError> {
    let scale = d.f64()?;
    // Replicates from_base_scaled's assertion as a check (NaN fails it).
    if !(scale >= 0.0 && scale.is_finite()) {
        return Err(corrupt("preference scale negative or non-finite"));
    }
    Ok(CustomerPreferences::from_base_scaled(scale, fraction(d)?))
}

// ---------------------------------------------------------------------
// Scenario (utility-agent configuration and customer population)
// ---------------------------------------------------------------------

fn put_beta_policy(buf: &mut Vec<u8>, p: &BetaPolicy) {
    match *p {
        BetaPolicy::Constant { beta } => {
            put_u8(buf, 0);
            put_f64(buf, beta);
        }
        BetaPolicy::Adaptive {
            beta,
            gain,
            min_progress,
        } => {
            put_u8(buf, 1);
            put_f64(buf, beta);
            put_f64(buf, gain);
            put_f64(buf, min_progress);
        }
        BetaPolicy::Annealing { beta, decay } => {
            put_u8(buf, 2);
            put_f64(buf, beta);
            put_f64(buf, decay);
        }
    }
}

fn beta_policy(d: &mut Dec) -> Result<BetaPolicy, ArchiveError> {
    Ok(match d.u8()? {
        0 => BetaPolicy::Constant { beta: d.f64()? },
        1 => BetaPolicy::Adaptive {
            beta: d.f64()?,
            gain: d.f64()?,
            min_progress: d.f64()?,
        },
        2 => BetaPolicy::Annealing {
            beta: d.f64()?,
            decay: d.f64()?,
        },
        _ => return Err(corrupt("unknown beta-policy tag")),
    })
}

fn put_ua_config(buf: &mut Vec<u8>, c: &UtilityAgentConfig) {
    put_f64(buf, c.formula.beta);
    put_f64(buf, c.formula.max_reward.value());
    put_f64(buf, c.formula.epsilon.value());
    put_beta_policy(buf, &c.beta_policy);
    put_f64(buf, c.max_allowed_overuse);
    put_u32(buf, LEVELS.len() as u32);
    for level in LEVELS {
        put_f64(buf, level);
    }
    put_f64(buf, c.initial_reward_at.value());
    put_fraction(buf, c.pin);
    put_u8(
        buf,
        match c.table_shape {
            TableShape::Quadratic => 0,
            TableShape::Linear => 1,
        },
    );
    put_fraction(buf, c.offer_x_max);
    put_u32(buf, c.max_rounds);
    match &c.economic_stop {
        None => put_u8(buf, 0),
        Some(rule) => {
            put_u8(buf, 1);
            put_f64(buf, rule.value_per_kwh.value());
        }
    }
}

fn ua_config(d: &mut Dec) -> Result<UtilityAgentConfig, ArchiveError> {
    let formula = RewardFormula {
        beta: d.f64()?,
        max_reward: Money(d.f64()?),
        epsilon: Money(d.f64()?),
    };
    let beta_policy = beta_policy(d)?;
    let max_allowed_overuse = d.f64()?;
    grid_count(d)?;
    for level in LEVELS {
        grid_level(d, level)?;
    }
    let initial_reward_at = Money(d.f64()?);
    let pin = fraction(d)?;
    let table_shape = match d.u8()? {
        0 => TableShape::Quadratic,
        1 => TableShape::Linear,
        _ => return Err(corrupt("unknown table-shape tag")),
    };
    let offer_x_max = fraction(d)?;
    let max_rounds = d.u32()?;
    let economic_stop = match d.u8()? {
        0 => None,
        1 => Some(EconomicStopRule {
            value_per_kwh: PricePerKwh(d.f64()?),
        }),
        _ => return Err(corrupt("unknown economic-stop tag")),
    };
    Ok(UtilityAgentConfig {
        formula,
        beta_policy,
        max_allowed_overuse,
        initial_reward_at,
        pin,
        table_shape,
        offer_x_max,
        max_rounds,
        economic_stop,
    })
}

fn put_scenario(buf: &mut Vec<u8>, s: &Scenario) {
    put_f64(buf, s.normal_use.value());
    put_interval(buf, s.interval);
    put_u32(buf, s.customers.len() as u32);
    for c in &s.customers {
        put_f64(buf, c.predicted_use.value());
        put_f64(buf, c.allowed_use.value());
        put_preferences(buf, &c.preferences);
    }
    put_ua_config(buf, &s.config);
    put_method(buf, s.method);
    put_tariff(buf, &s.tariff);
}

fn scenario(d: &mut Dec) -> Result<Scenario, ArchiveError> {
    let normal_use = KilowattHours(d.f64()?);
    let interval = interval(d)?;
    let n = d.count(32)?;
    let mut customers = Vec::with_capacity(n);
    for _ in 0..n {
        customers.push(CustomerProfile {
            predicted_use: KilowattHours(d.f64()?),
            allowed_use: KilowattHours(d.f64()?),
            preferences: preferences(d)?,
        });
    }
    Ok(Scenario {
        normal_use,
        interval,
        customers,
        config: ua_config(d)?,
        method: method(d)?,
        tariff: tariff(d)?,
    })
}

// ---------------------------------------------------------------------
// Negotiation reports
// ---------------------------------------------------------------------

fn put_round(buf: &mut Vec<u8>, r: &RoundRecord) {
    put_u32(buf, r.round);
    match &r.table {
        None => put_u8(buf, 0),
        Some(t) => {
            put_u8(buf, 1);
            put_reward_table(buf, t);
        }
    }
    put_run(buf, r.bids.iter().map(|b| [b.value().to_bits()]));
    put_f64(buf, r.predicted_total.value());
    put_u64(buf, r.messages);
}

fn round(d: &mut Dec) -> Result<RoundRecord, ArchiveError> {
    let round = d.u32()?;
    let table = match d.u8()? {
        0 => None,
        1 => Some(Arc::new(reward_table(d)?)),
        _ => return Err(corrupt("unknown reward-table tag")),
    };
    Ok(RoundRecord {
        round,
        table,
        bids: run(d, |[bid]| fraction_of(f64::from_bits(bid)))?,
        predicted_total: KilowattHours(d.f64()?),
        messages: d.u64()?,
    })
}

/// Encodes a report downgraded to (at most) `tier` on the way out —
/// the storage a lower tier would have dropped at assembly time is
/// simply not written.
pub(crate) fn put_report(buf: &mut Vec<u8>, r: &NegotiationReport, tier: ReportTier) {
    let tier = tier.min(r.tier());
    put_method(buf, r.method());
    put_f64(buf, r.normal_use().value());
    put_f64(buf, r.initial_total().value());
    put_tier(buf, tier);
    let digest = r.digest();
    put_u32(buf, digest.rounds);
    put_u64(buf, digest.messages);
    put_f64(buf, digest.final_total.value());
    put_f64(buf, digest.total_rewards.value());
    put_u32(buf, digest.customers);
    let rounds: &[RoundRecord] = if tier.keeps_rounds() { r.rounds() } else { &[] };
    put_u32(buf, rounds.len() as u32);
    for rec in rounds {
        put_round(buf, rec);
    }
    put_status(buf, r.status());
    let settlements: &[Settlement] = if tier.keeps_settlements() {
        r.settlements()
    } else {
        &[]
    };
    put_run(
        buf,
        settlements
            .iter()
            .map(|s| [s.cutdown.value().to_bits(), s.reward.value().to_bits()]),
    );
    put_u64(buf, r.extra_messages());
}

pub(crate) fn report(d: &mut Dec) -> Result<NegotiationReport, ArchiveError> {
    let method = method(d)?;
    let normal_use = KilowattHours(d.f64()?);
    let initial_total = KilowattHours(d.f64()?);
    let tier = tier(d)?;
    let digest = RoundDigest {
        rounds: d.u32()?,
        messages: d.u64()?,
        final_total: KilowattHours(d.f64()?),
        total_rewards: Money(d.f64()?),
        customers: d.u32()?,
    };
    let n = d.count(25)?;
    let mut rounds = Vec::with_capacity(n);
    for _ in 0..n {
        rounds.push(round(d)?);
    }
    let status = status(d)?;
    let settlements = run(d, |[cutdown, reward]| {
        Ok(Settlement {
            cutdown: fraction_of(f64::from_bits(cutdown))?,
            reward: Money(f64::from_bits(reward)),
        })
    })?;
    let extra_messages = d.u64()?;
    if !rounds.is_empty() && !tier.keeps_rounds() {
        return Err(corrupt("round records below the full-trace tier"));
    }
    if !settlements.is_empty() && !tier.keeps_settlements() {
        return Err(corrupt("settlements below the settlement tier"));
    }
    Ok(NegotiationReport::from_parts(
        method,
        normal_use,
        initial_total,
        tier,
        digest,
        rounds,
        status,
        settlements,
        extra_messages,
    ))
}

// ---------------------------------------------------------------------
// Day and outcome blocks
// ---------------------------------------------------------------------

/// Predictor names come back as `&'static str`; known model names are
/// matched first and genuinely novel names are interned once (bounded
/// by the distinct names an archive contains, never re-leaked).
fn intern_predictor(name: String) -> &'static str {
    const KNOWN: [&str; 4] = [
        "moving-average",
        "seasonal-naive",
        "weather-regression",
        "holt-trend",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == name) {
        return k;
    }
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut interned = INTERNED.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(k) = interned.iter().find(|k| **k == name) {
        return k;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    interned.push(leaked);
    leaked
}

pub(crate) fn put_day_outcome(buf: &mut Vec<u8>, day: &DayOutcome) {
    put_calendar_day(buf, day.day);
    put_str(buf, day.predictor);
    put_u32(buf, day.peaks.len() as u32);
    for p in &day.peaks {
        put_peak(buf, p);
    }
    put_f64(buf, day.feedback_delta.value());
}

pub(crate) fn day_outcome(d: &mut Dec) -> Result<DayOutcome, ArchiveError> {
    let day = calendar_day(d)?;
    let predictor = intern_predictor(d.str()?);
    let n = d.count(32)?;
    let mut peaks = Vec::with_capacity(n);
    for _ in 0..n {
        peaks.push(peak(d)?);
    }
    Ok(DayOutcome {
        day,
        predictor,
        peaks,
        feedback_delta: KilowattHours(d.f64()?),
    })
}

pub(crate) fn put_interval_outcome(buf: &mut Vec<u8>, o: &IntervalOutcome, tier: ReportTier) {
    put_calendar_day(buf, o.day);
    put_peak(buf, &o.peak);
    put_str(buf, &o.label);
    match o.scenario.as_ref().filter(|_| tier.keeps_rounds()) {
        None => put_u8(buf, 0),
        Some(s) => {
            put_u8(buf, 1);
            put_scenario(buf, s);
        }
    }
    put_report(buf, &o.report, tier);
}

pub(crate) fn interval_outcome(d: &mut Dec) -> Result<IntervalOutcome, ArchiveError> {
    let day = calendar_day(d)?;
    let peak = peak(d)?;
    let label = d.str()?;
    let scenario = match d.u8()? {
        0 => None,
        1 => Some(Box::new(scenario(d)?)),
        _ => return Err(corrupt("unknown scenario tag")),
    };
    Ok(IntervalOutcome {
        day,
        peak,
        label,
        scenario,
        report: report(d)?,
    })
}

// ---------------------------------------------------------------------
// Economics (index payload)
// ---------------------------------------------------------------------

pub(crate) fn put_economics(buf: &mut Vec<u8>, e: &CampaignEconomics) {
    put_f64(buf, e.rewards_paid.value());
    put_f64(buf, e.energy_shaved.value());
    put_f64(buf, e.production_cost_avoided.value());
    put_f64(buf, e.peak_saving.value());
    put_f64(buf, e.net_gain.value());
    put_u64(buf, e.economic_stops as u64);
}

pub(crate) fn economics(d: &mut Dec) -> Result<CampaignEconomics, ArchiveError> {
    Ok(CampaignEconomics {
        rewards_paid: Money(d.f64()?),
        energy_shaved: KilowattHours(d.f64()?),
        production_cost_avoided: Money(d.f64()?),
        peak_saving: Money(d.f64()?),
        net_gain: Money(d.f64()?),
        economic_stops: d.u64()? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Format-v2 preference bytes written out by hand: the scale, then
    /// the ceiling, each as a little-endian `f64` bit pattern.
    fn preference_bytes(scale: f64, ceiling: f64) -> Vec<u8> {
        let mut bytes = scale.to_bits().to_le_bytes().to_vec();
        bytes.extend_from_slice(&ceiling.to_bits().to_le_bytes());
        bytes
    }

    /// Decodes `bytes` as one whole block with `decode`.
    fn decode_all<T>(
        bytes: &[u8],
        decode: fn(&mut Dec) -> Result<T, ArchiveError>,
    ) -> Result<T, ArchiveError> {
        let mut d = Dec::new(bytes, "block");
        let value = decode(&mut d)?;
        d.finish()?;
        Ok(value)
    }

    fn decode_bids(bytes: &[u8]) -> Result<Vec<Fraction>, ArchiveError> {
        let mut d = Dec::new(bytes, "bids");
        let bids = run(&mut d, |[bid]| fraction_of(f64::from_bits(bid)))?;
        d.finish()?;
        Ok(bids)
    }

    #[test]
    fn hand_encoded_preferences_decode_to_scaled_preferences() {
        for (k, ceiling) in [(1.0, 0.5), (0.6, 0.3), (2.8, 0.0), (0.0, 1.0), (1.7, 0.4)] {
            let bytes = preference_bytes(k, ceiling);
            let expected = CustomerPreferences::from_base_scaled(k, Fraction::clamped(ceiling));
            assert_eq!(
                decode_all(&bytes, preferences).ok(),
                Some(expected),
                "k = {k}"
            );
            // And the encoder writes exactly those bytes.
            let mut written = Vec::new();
            put_preferences(&mut written, &expected);
            assert_eq!(written, bytes, "k = {k}");
        }
    }

    #[test]
    fn out_of_range_scales_and_ceilings_are_typed_errors() {
        let is_corrupt = |scale: f64, ceiling: f64| {
            matches!(
                decode_all(&preference_bytes(scale, ceiling), preferences),
                Err(ArchiveError::Corrupt { .. })
            )
        };
        for scale in [
            -1.0,
            -f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(is_corrupt(scale, 0.5), "scale {scale}");
        }
        for ceiling in [-0.1, 1.000_001, f64::NAN, f64::INFINITY] {
            assert!(is_corrupt(1.0, ceiling), "ceiling {ceiling}");
        }
    }

    #[test]
    fn a_dictionary_index_past_the_dictionary_is_corrupt() {
        // Three bids over a two-entry dictionary {0.1, 0.3}.
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[RUN_DICTIONARY, 2]);
        bytes.extend_from_slice(&0.1f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&0.3f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&[1, 0, 1]);
        let bids = decode_bids(&bytes).ok();
        let expected = [0.3, 0.1, 0.3].map(Fraction::clamped).to_vec();
        assert_eq!(bids, Some(expected));
        for index in [2, u8::MAX] {
            let last = bytes.len() - 1;
            bytes[last] = index;
            assert!(
                matches!(decode_bids(&bytes), Err(ArchiveError::Corrupt { .. })),
                "index {index}"
            );
        }
    }

    /// Little-endian `f64` bit patterns, as the codec writes them.
    fn f64_bytes(values: &[f64]) -> Vec<u8> {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect()
    }

    /// Format-v2 bytes of the paper's UA configuration written out by
    /// hand, storing `levels`: the formula (β, max reward, ε), a
    /// constant-β policy (tag 0, β), the allowed overuse, the level count
    /// and levels, the initial reward and pin, a quadratic shape (0),
    /// `x_max`, the round budget and no economic stop (0).
    fn paper_config_bytes(levels: &[f64]) -> Vec<u8> {
        let mut bytes = f64_bytes(&[2.0, 30.0, 1.0]);
        bytes.push(0);
        bytes.extend(f64_bytes(&[2.0, 0.15]));
        bytes.extend((levels.len() as u32).to_le_bytes());
        bytes.extend(f64_bytes(levels));
        bytes.extend(f64_bytes(&[17.0, 0.4]));
        bytes.push(0);
        bytes.extend(f64_bytes(&[0.8]));
        bytes.extend(50u32.to_le_bytes());
        bytes.push(0);
        bytes
    }

    /// Format-v2 bytes of a reward table over slots 72..80 written out by
    /// hand: the interval, the entry count, then each `(cutdown, reward)`.
    fn table_bytes(entries: &[(f64, f64)]) -> Vec<u8> {
        let mut bytes: Vec<u8> = [72u64, 80].iter().flat_map(|b| b.to_le_bytes()).collect();
        bytes.extend((entries.len() as u32).to_le_bytes());
        for &(cutdown, reward) in entries {
            bytes.extend(f64_bytes(&[cutdown, reward]));
        }
        bytes
    }

    #[test]
    fn stored_configuration_levels_must_be_the_grid() {
        let paper = UtilityAgentConfig::paper();
        let mut written = Vec::new();
        put_ua_config(&mut written, &paper);
        assert_eq!(written, paper_config_bytes(&LEVELS));
        assert_eq!(decode_all(&written, ua_config).ok(), Some(paper));
        // A level count other than six, then levels off the grid's bits.
        let off_grid: [&[f64]; 5] = [
            &LEVELS[..5],
            &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            &[0.0, 0.15, 0.2, 0.3, 0.4, 0.5],
            &[-0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
            &[0.0, 0.1, 0.2, 0.3, 0.5, 0.4],
        ];
        for levels in off_grid {
            let decoded = decode_all(&paper_config_bytes(levels), ua_config);
            assert!(
                matches!(decoded, Err(ArchiveError::Corrupt { .. })),
                "{levels:?}"
            );
        }
    }

    #[test]
    fn stored_table_levels_must_be_the_grid() {
        let table =
            RewardTable::quadratic(Interval::new(72, 80), Money(17.0), Fraction::clamped(0.4));
        let entries: Vec<(f64, f64)> = table
            .entries()
            .iter()
            .map(|&(c, r)| (c.value(), r.value()))
            .collect();
        let mut written = Vec::new();
        put_reward_table(&mut written, &table);
        assert_eq!(written, table_bytes(&entries));
        assert_eq!(decode_all(&written, reward_table).ok(), Some(table));
        // A level count other than six, then levels off the grid's bits.
        let mut off_grid = vec![entries[..5].to_vec(); 4];
        off_grid[1] = entries.clone();
        off_grid[1][1].0 = 0.15;
        off_grid[2] = entries.clone();
        off_grid[2][0].0 = -0.0;
        off_grid[3] = entries.clone();
        off_grid[3][5].0 = 0.6;
        for entries in off_grid {
            let decoded = decode_all(&table_bytes(&entries), reward_table);
            assert!(
                matches!(decoded, Err(ArchiveError::Corrupt { .. })),
                "{entries:?}"
            );
        }
    }

    #[test]
    fn a_run_keeps_zero_and_negative_zero_apart() {
        let bids = [0.0, -0.0, 0.0, -0.0].map(Fraction::clamped);
        assert_eq!(bids[1].value().to_bits(), (-0.0f64).to_bits());
        let mut bytes = Vec::new();
        put_run(&mut bytes, bids.iter().map(|b| [b.value().to_bits()]));
        // A two-entry dictionary, not one.
        assert_eq!(bytes.get(4..6), Some(&[RUN_DICTIONARY, 2][..]));
        let decoded = decode_bids(&bytes).unwrap_or_default();
        let bits = |v: &[Fraction]| v.iter().map(|b| b.value().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&bids));
    }
}
