//! Ed25519 signatures (RFC 8032), implemented from scratch.
//!
//! This is the signature scheme behind the PF+=2 `verify` function. Like the
//! rest of this crate it is hermetic — no external crates — and validated
//! against the RFC 8032 §7.1 test vectors.
//!
//! Layout of the module, bottom up:
//!
//! * **Field arithmetic** over `p = 2^255 - 19` in radix-2^51 (five `u64`
//!   limbs, `u128` products). Stored limbs stay below 2^52; multiplication
//!   tolerates operands up to 2^54, so additions/subtractions feed into
//!   products without intermediate canonicalization.
//! * **Scalar arithmetic** modulo the group order
//!   `L = 2^252 + 27742317777372353535851937790883648493`. Reduction of
//!   512-bit values is binary shift-subtract long division — a few thousand
//!   word operations, irrelevant next to the curve math and chosen for
//!   obviousness over speed (the verify cache amortizes everything anyway).
//! * **Group arithmetic** in extended twisted Edwards coordinates
//!   `(X, Y, Z, T)` with the unified `a = -1` addition formula, which is
//!   complete on the curve and doubles as the doubling formula. Scalar
//!   multiplication is plain MSB-first double-and-add.
//! * **Sign/verify** per RFC 8032: `A = [clamp(h[..32])]B` with
//!   `h = SHA-512(seed)`, deterministic nonce `r = SHA-512(prefix ‖ M) mod L`,
//!   and verification via `encode([s]B + [k](-A)) == R` with a canonicity
//!   check `s < L` (rejecting the malleated `s + L` form).
//!
//! Timing side channels are out of scope for a reproduction (secret-dependent
//! branches exist in the scalar ladder); signature *comparisons* are
//! constant-time via [`crate::ct_eq`], which is the channel an attacker can
//! actually drive remotely in this system.

use std::sync::OnceLock;

use crate::ct_eq;
use crate::sha256::{from_hex, to_hex};
use crate::sha512::{sha512, Sha512};

/// An ed25519 signature: the encoded nonce point `R` followed by the response
/// scalar `s`, 64 bytes total (RFC 8032 §5.1.6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature(pub(crate) [u8; 64]);

impl Signature {
    /// Serializes the signature as a 128-character hex string (as it appears
    /// in the `req-sig` key of daemon configuration files).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Parses a signature from its hex form. Returns `None` for malformed
    /// input (wrong length or non-hex characters).
    pub fn from_hex(s: &str) -> Option<Signature> {
        let bytes = from_hex(s.trim())?;
        if bytes.len() != 64 {
            return None;
        }
        let mut out = [0u8; 64];
        out.copy_from_slice(&bytes);
        Some(Signature(out))
    }

    /// The raw 64-byte form.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0
    }

    /// Builds a signature from its raw 64-byte form.
    pub fn from_bytes(bytes: [u8; 64]) -> Signature {
        Signature(bytes)
    }
}

// --- field arithmetic mod p = 2^255 - 19, radix 2^51 -----------------------

const MASK51: u64 = (1u64 << 51) - 1;

/// A field element; limbs hold 51 bits each (value = Σ limb[i]·2^(51·i)),
/// kept loosely reduced below 2^52 between operations.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_u64(v: u64) -> Fe {
        Fe([v & MASK51, v >> 51, 0, 0, 0])
    }

    /// Loads 32 little-endian bytes, masking bit 255 (the sign bit of a
    /// compressed point rides there).
    fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |i: usize| -> u64 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[i..i + 8]);
            u64::from_le_bytes(w)
        };
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Canonical 32-byte little-endian encoding (value fully reduced mod p).
    fn to_bytes(self) -> [u8; 32] {
        let mut f = self.weak_reduce().0;
        // q = 1 iff f + 19 >= 2^255, i.e. iff f >= p.
        let mut q = (f[0] + 19) >> 51;
        q = (f[1] + q) >> 51;
        q = (f[2] + q) >> 51;
        q = (f[3] + q) >> 51;
        q = (f[4] + q) >> 51;
        f[0] += 19 * q;
        let mut c = f[0] >> 51;
        f[0] &= MASK51;
        f[1] += c;
        c = f[1] >> 51;
        f[1] &= MASK51;
        f[2] += c;
        c = f[2] >> 51;
        f[2] &= MASK51;
        f[3] += c;
        c = f[3] >> 51;
        f[3] &= MASK51;
        f[4] += c;
        f[4] &= MASK51; // discard the 2^255 carry: the value is now mod 2^255

        let words = [
            f[0] | (f[1] << 51),
            (f[1] >> 13) | (f[2] << 38),
            (f[2] >> 26) | (f[3] << 25),
            (f[3] >> 39) | (f[4] << 12),
        ];
        let mut out = [0u8; 32];
        for (i, w) in words.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// One carry pass folding the top carry back via ×19; output limbs are
    /// below 2^52 for any input limbs below 2^63.
    fn weak_reduce(self) -> Fe {
        let mut f = self.0;
        let mut c = f[0] >> 51;
        f[0] &= MASK51;
        f[1] += c;
        c = f[1] >> 51;
        f[1] &= MASK51;
        f[2] += c;
        c = f[2] >> 51;
        f[2] &= MASK51;
        f[3] += c;
        c = f[3] >> 51;
        f[3] &= MASK51;
        f[4] += c;
        c = f[4] >> 51;
        f[4] &= MASK51;
        f[0] += 19 * c;
        c = f[0] >> 51;
        f[0] &= MASK51;
        f[1] += c;
        Fe(f)
    }

    fn add(self, other: Fe) -> Fe {
        let a = self.0;
        let b = other.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
        .weak_reduce()
    }

    /// `self - other`, computed as `self + 4p - other` so limbs never
    /// underflow even when both operands are only loosely reduced.
    fn sub(self, other: Fe) -> Fe {
        const FOUR_P: [u64; 5] = [
            4 * ((1u64 << 51) - 19),
            4 * ((1u64 << 51) - 1),
            4 * ((1u64 << 51) - 1),
            4 * ((1u64 << 51) - 1),
            4 * ((1u64 << 51) - 1),
        ];
        let a = self.0;
        let b = other.0;
        Fe([
            a[0] + FOUR_P[0] - b[0],
            a[1] + FOUR_P[1] - b[1],
            a[2] + FOUR_P[2] - b[2],
            a[3] + FOUR_P[3] - b[3],
            a[4] + FOUR_P[4] - b[4],
        ])
        .weak_reduce()
    }

    fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    fn mul(self, other: Fe) -> Fe {
        let a = self.0.map(|x| x as u128);
        let b = other.0.map(|x| x as u128);
        // Products of limbs i and j contribute at 2^(51·(i+j)); terms at
        // 2^255 and above wrap down via 2^255 ≡ 19 (mod p).
        let mut r0 = a[0] * b[0] + 19 * (a[1] * b[4] + a[2] * b[3] + a[3] * b[2] + a[4] * b[1]);
        let mut r1 = a[0] * b[1] + a[1] * b[0] + 19 * (a[2] * b[4] + a[3] * b[3] + a[4] * b[2]);
        let mut r2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0] + 19 * (a[3] * b[4] + a[4] * b[3]);
        let mut r3 = a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0] + 19 * (a[4] * b[4]);
        let mut r4 = a[0] * b[4] + a[1] * b[3] + a[2] * b[2] + a[3] * b[1] + a[4] * b[0];

        let m = MASK51 as u128;
        r1 += r0 >> 51;
        r0 &= m;
        r2 += r1 >> 51;
        r1 &= m;
        r3 += r2 >> 51;
        r2 &= m;
        r4 += r3 >> 51;
        r3 &= m;
        let carry = r4 >> 51;
        r4 &= m;
        r0 += 19 * carry;
        r1 += r0 >> 51;
        r0 &= m;

        Fe([r0 as u64, r1 as u64, r2 as u64, r3 as u64, r4 as u64])
    }

    fn square(self) -> Fe {
        self.mul(self)
    }

    /// `self^exp` with the exponent as 32 little-endian bytes (MSB-first
    /// square-and-multiply). Used only for inversion and square roots.
    fn pow_bytes(self, exp_le: &[u8; 32]) -> Fe {
        let mut acc = Fe::ONE;
        for i in (0..256).rev() {
            acc = acc.square();
            if (exp_le[i / 8] >> (i % 8)) & 1 == 1 {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Multiplicative inverse via Fermat: `self^(p-2)`. Returns zero for
    /// zero, which never reaches a division in the formulas used here.
    fn invert(self) -> Fe {
        // p - 2 = 2^255 - 21, little-endian.
        let mut exp = [0xffu8; 32];
        exp[0] = 0xeb;
        exp[31] = 0x7f;
        self.pow_bytes(&exp)
    }

    /// `self^((p-5)/8)`, the exponent used in the combined square-root
    /// computation of point decompression (RFC 8032 §5.1.3).
    fn pow_p58(self) -> Fe {
        // (p - 5) / 8 = 2^252 - 3, little-endian.
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfd;
        exp[31] = 0x0f;
        self.pow_bytes(&exp)
    }

    fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    fn equals(self, other: Fe) -> bool {
        ct_eq(&self.to_bytes(), &other.to_bytes())
    }

    fn is_zero(self) -> bool {
        self.equals(Fe::ZERO)
    }
}

// --- group arithmetic: extended twisted Edwards coordinates ----------------

/// A curve point in extended coordinates: `x = X/Z`, `y = Y/Z`, `T = XY/Z`.
#[derive(Clone, Copy, Debug)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl Point {
    const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// Unified addition for `a = -1` twisted Edwards curves
    /// ("Twisted Edwards Curves Revisited", add-2008-hwcd-3). Complete on
    /// ed25519 (d is non-square), so it also serves as the doubling formula.
    fn add(&self, other: &Point) -> Point {
        let k2d = consts().d2;
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let c = self.t.mul(k2d).mul(other.t);
        let zz = self.z.mul(other.z);
        let d = zz.add(zz);
        let e = b.sub(a);
        let f = d.sub(c);
        let g = d.add(c);
        let h = b.add(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// `[k]self` with `k` as 32 little-endian bytes, MSB-first
    /// double-and-add.
    fn scalar_mul(&self, k: &[u8; 32]) -> Point {
        let mut acc = Point::IDENTITY;
        for i in (0..256).rev() {
            acc = acc.add(&acc);
            if (k[i / 8] >> (i % 8)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Canonical compressed encoding: `y` with the sign of `x` in bit 255.
    fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses an encoded point; `None` if the encoding names no point
    /// on the curve (RFC 8032 §5.1.3).
    fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let c = consts();
        let y = Fe::from_bytes(bytes);
        let sign = bytes[31] >> 7 == 1;
        let y2 = y.square();
        let u = y2.sub(Fe::ONE);
        let v = c.d.mul(y2).add(Fe::ONE);
        // Candidate root x = u·v^3·(u·v^7)^((p-5)/8).
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vx2 = v.mul(x.square());
        if vx2.equals(u) {
            // x is already a square root.
        } else if vx2.equals(u.neg()) {
            x = x.mul(c.sqrt_m1);
        } else {
            return None;
        }
        if x.is_zero() && sign {
            return None; // "negative zero" encodes no point
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }
}

/// Curve constants, derived arithmetically once rather than transcribed as
/// limb tables (limb-level typos would be invisible; `4/5` is not).
struct Consts {
    /// d = -121665/121666
    d: Fe,
    /// 2d, as used by the unified addition formula.
    d2: Fe,
    /// √-1 = 2^((p-1)/4)
    sqrt_m1: Fe,
    /// The base point B (y = 4/5, x positive).
    base: Point,
}

fn consts() -> &'static Consts {
    static CONSTS: OnceLock<Consts> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let d = Fe::from_u64(121_665)
            .neg()
            .mul(Fe::from_u64(121_666).invert());
        // (p - 1) / 4 = 2^253 - 5, little-endian.
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfb;
        exp[31] = 0x1f;
        let sqrt_m1 = Fe::from_u64(2).pow_bytes(&exp);
        // B compressed: y = 4/5 with x positive. decompress() only needs d
        // and sqrt_m1, which are already computed above; a temporary Consts
        // with a placeholder base lets us reuse it.
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        let mut b_enc = y.to_bytes();
        b_enc[31] &= 0x7f; // x positive
        let boot = Consts {
            d,
            d2: d.add(d),
            sqrt_m1,
            base: Point::IDENTITY,
        };
        let base = decompress_with(&boot, &b_enc).expect("base point decompresses");
        Consts { base, ..boot }
    })
}

/// `Point::decompress` against an explicit constant set — needed once during
/// initialization, before the global `Consts` exists.
fn decompress_with(c: &Consts, bytes: &[u8; 32]) -> Option<Point> {
    let y = Fe::from_bytes(bytes);
    let sign = bytes[31] >> 7 == 1;
    let y2 = y.square();
    let u = y2.sub(Fe::ONE);
    let v = c.d.mul(y2).add(Fe::ONE);
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
    let vx2 = v.mul(x.square());
    if vx2.equals(u) {
    } else if vx2.equals(u.neg()) {
        x = x.mul(c.sqrt_m1);
    } else {
        return None;
    }
    if x.is_zero() && sign {
        return None;
    }
    if x.is_negative() != sign {
        x = x.neg();
    }
    Some(Point {
        x,
        y,
        z: Fe::ONE,
        t: x.mul(y),
    })
}

// --- scalar arithmetic mod L ----------------------------------------------

/// The group order `L = 2^252 + 27742317777372353535851937790883648493` as
/// four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0,
    0x1000_0000_0000_0000,
];

/// Reduces a 512-bit little-endian value modulo `L` by binary long division:
/// subtract `L << shift` whenever it fits, from the top shift down.
fn sc_reduce(bytes: &[u8; 64]) -> [u8; 32] {
    let mut n = [0u64; 9];
    for i in 0..8 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
        n[i] = u64::from_le_bytes(w);
    }
    // L has 253 significant bits; n has at most 512, so shifts above
    // 512 - 253 = 259 can never fit.
    for shift in (0..=259usize).rev() {
        let shifted = shifted_l(shift);
        if geq(&n, &shifted) {
            sub_assign(&mut n, &shifted);
        }
    }
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..i * 8 + 8].copy_from_slice(&n[i].to_le_bytes());
    }
    out
}

fn shifted_l(shift: usize) -> [u64; 9] {
    let word = shift / 64;
    let bit = shift % 64;
    let mut out = [0u64; 9];
    for i in 0..4 {
        out[i + word] |= L[i] << bit;
        if bit > 0 {
            out[i + word + 1] |= L[i] >> (64 - bit);
        }
    }
    out
}

fn geq(a: &[u64; 9], b: &[u64; 9]) -> bool {
    for i in (0..9).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

fn sub_assign(a: &mut [u64; 9], b: &[u64; 9]) {
    let mut borrow = 0u64;
    for i in 0..9 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    debug_assert_eq!(borrow, 0, "sub_assign underflow");
}

/// `(a·b + c) mod L`, all scalars as 32 little-endian bytes.
fn sc_muladd(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let limbs = |s: &[u8; 32]| -> [u64; 4] {
        let mut out = [0u64; 4];
        for i in 0..4 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&s[i * 8..i * 8 + 8]);
            out[i] = u64::from_le_bytes(w);
        }
        out
    };
    let av = limbs(a);
    let bv = limbs(b);
    let cv = limbs(c);

    // Schoolbook 256×256 → 512-bit product.
    let mut r = [0u64; 8];
    for i in 0..4 {
        let mut carry: u128 = 0;
        for j in 0..4 {
            let cur = r[i + j] as u128 + av[i] as u128 * bv[j] as u128 + carry;
            r[i + j] = cur as u64;
            carry = cur >> 64;
        }
        r[i + 4] = carry as u64;
    }
    // Add c.
    let mut carry: u128 = 0;
    for i in 0..8 {
        let cur = r[i] as u128 + if i < 4 { cv[i] as u128 } else { 0 } + carry;
        r[i] = cur as u64;
        carry = cur >> 64;
    }
    debug_assert_eq!(carry, 0);

    let mut bytes = [0u8; 64];
    for i in 0..8 {
        bytes[i * 8..i * 8 + 8].copy_from_slice(&r[i].to_le_bytes());
    }
    sc_reduce(&bytes)
}

/// `true` iff the 32 little-endian bytes name a scalar strictly below `L`
/// (RFC 8032's malleability check on `s`).
fn sc_is_canonical(s: &[u8; 32]) -> bool {
    let mut limbs = [0u64; 4];
    for i in 0..4 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&s[i * 8..i * 8 + 8]);
        limbs[i] = u64::from_le_bytes(w);
    }
    for i in (0..4).rev() {
        if limbs[i] != L[i] {
            return limbs[i] < L[i];
        }
    }
    false // equal to L
}

// --- RFC 8032 sign / verify ------------------------------------------------

/// RFC 8032 secret-scalar clamping.
fn clamp(a: &mut [u8; 32]) {
    a[0] &= 248;
    a[31] &= 127;
    a[31] |= 64;
}

/// Expands a 32-byte seed into `(secret scalar, nonce prefix)`.
fn expand_seed(seed: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    let h = sha512(seed);
    let mut a = [0u8; 32];
    a.copy_from_slice(&h[..32]);
    clamp(&mut a);
    let mut prefix = [0u8; 32];
    prefix.copy_from_slice(&h[32..]);
    (a, prefix)
}

/// Derives the 32-byte public key for a seed.
pub fn derive_public(seed: &[u8; 32]) -> [u8; 32] {
    let (a, _) = expand_seed(seed);
    consts().base.scalar_mul(&a).compress()
}

/// Signs `message` with the key pair derived from `seed`.
pub fn sign(seed: &[u8; 32], message: &[u8]) -> Signature {
    let (a, prefix) = expand_seed(seed);
    let public = consts().base.scalar_mul(&a).compress();

    let mut h = Sha512::new();
    h.update(&prefix);
    h.update(message);
    let r = sc_reduce(&h.finalize());
    let r_enc = consts().base.scalar_mul(&r).compress();

    let mut h = Sha512::new();
    h.update(&r_enc);
    h.update(&public);
    h.update(message);
    let k = sc_reduce(&h.finalize());

    let s = sc_muladd(&k, &a, &r);
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(&r_enc);
    sig[32..].copy_from_slice(&s);
    Signature(sig)
}

/// Verifies `signature` over `message` against a compressed public key.
pub fn verify(public: &[u8; 32], message: &[u8], signature: &Signature) -> bool {
    let mut r_enc = [0u8; 32];
    r_enc.copy_from_slice(&signature.0[..32]);
    let mut s = [0u8; 32];
    s.copy_from_slice(&signature.0[32..]);
    if !sc_is_canonical(&s) {
        return false;
    }
    let a = match Point::decompress(public) {
        Some(p) => p,
        None => return false,
    };

    let mut h = Sha512::new();
    h.update(&r_enc);
    h.update(public);
    h.update(message);
    let k = sc_reduce(&h.finalize());

    // [s]B == R + [k]A  ⇔  encode([s]B + [k](-A)) == R
    let check = consts()
        .base
        .scalar_mul(&s)
        .add(&a.neg().scalar_mul(&k))
        .compress();
    ct_eq(&check, &r_enc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_from_hex(s: &str) -> [u8; 32] {
        let v = from_hex(s).unwrap();
        let mut out = [0u8; 32];
        out.copy_from_slice(&v);
        out
    }

    // --- field and group sanity -------------------------------------------

    #[test]
    fn field_invert_round_trips() {
        for v in [1u64, 2, 5, 121_666, u64::MAX] {
            let fe = Fe::from_u64(v);
            assert!(
                fe.mul(fe.invert()).equals(Fe::ONE),
                "inverse failed for {v}"
            );
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let c = consts();
        assert!(c.sqrt_m1.square().equals(Fe::ONE.neg()));
    }

    #[test]
    fn base_point_is_on_the_curve() {
        // -x² + y² = 1 + d·x²·y²
        let c = consts();
        let b = &c.base;
        let zinv = b.z.invert();
        let x = b.x.mul(zinv);
        let y = b.y.mul(zinv);
        let lhs = y.square().sub(x.square());
        let rhs = Fe::ONE.add(c.d.mul(x.square()).mul(y.square()));
        assert!(lhs.equals(rhs));
    }

    #[test]
    fn field_encoding_round_trips() {
        let samples: [[u8; 32]; 3] = [
            [0u8; 32],
            {
                let mut b = [0u8; 32];
                b[0] = 42;
                b
            },
            {
                // p - 1, the largest canonical element.
                let mut b = [0xff; 32];
                b[0] = 0xec;
                b[31] = 0x7f;
                b
            },
        ];
        for b in samples {
            assert_eq!(Fe::from_bytes(&b).to_bytes(), b);
        }
        // p itself must canonicalize to zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        assert_eq!(Fe::from_bytes(&p_bytes).to_bytes(), [0u8; 32]);
    }

    #[test]
    fn scalar_reduce_agrees_with_small_values() {
        // A value already below L reduces to itself.
        let mut small = [0u8; 64];
        small[0] = 0x7b;
        assert_eq!(sc_reduce(&small)[0], 0x7b);
        // L reduces to zero.
        let mut l_bytes = [0u8; 64];
        for i in 0..4 {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert_eq!(sc_reduce(&l_bytes), [0u8; 32]);
    }

    // --- RFC 8032 §7.1 test vectors ---------------------------------------

    #[test]
    fn rfc8032_test_1_empty_message() {
        let seed =
            seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
        let public = derive_public(&seed);
        assert_eq!(
            to_hex(&public),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = sign(&seed, b"");
        assert_eq!(
            sig.to_hex(),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(verify(&public, b"", &sig));
    }

    #[test]
    fn rfc8032_test_2_one_byte_message() {
        let seed =
            seed_from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
        let public = derive_public(&seed);
        assert_eq!(
            to_hex(&public),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let msg = [0x72u8];
        let sig = sign(&seed, &msg);
        assert_eq!(
            sig.to_hex(),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        assert!(verify(&public, &msg, &sig));
    }

    #[test]
    fn rfc8032_test_3_two_byte_message() {
        let seed =
            seed_from_hex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
        let public = derive_public(&seed);
        assert_eq!(
            to_hex(&public),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xafu8, 0x82];
        let sig = sign(&seed, &msg);
        assert_eq!(
            sig.to_hex(),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(verify(&public, &msg, &sig));
    }

    // --- rejection behaviour ----------------------------------------------

    #[test]
    fn tampered_message_or_signature_rejected() {
        let seed =
            seed_from_hex("00000000000000000000000000000000000000000000000000000000000000aa");
        let public = derive_public(&seed);
        let sig = sign(&seed, b"pass from research to research");
        assert!(verify(&public, b"pass from research to research", &sig));
        assert!(!verify(&public, b"pass from research to production", &sig));
        for i in [0usize, 31, 32, 63] {
            let mut bytes = sig.to_bytes();
            bytes[i] ^= 1;
            let bad = Signature::from_bytes(bytes);
            assert!(
                !verify(&public, b"pass from research to research", &bad),
                "flipping byte {i} still verified"
            );
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = sign(&[1u8; 32], b"message");
        let other = derive_public(&[2u8; 32]);
        assert!(!verify(&other, b"message", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        // Replace s with L (≥ L): same curve equation, different encoding —
        // the malleability RFC 8032 forbids.
        let seed = [7u8; 32];
        let public = derive_public(&seed);
        let mut bytes = sign(&seed, b"m").to_bytes();
        for i in 0..4 {
            bytes[32 + i * 8..32 + i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert!(!verify(&public, b"m", &Signature::from_bytes(bytes)));
    }

    #[test]
    fn invalid_point_encoding_rejected() {
        // y = 2 gives x² = (y²-1)/(dy²+1) which is not a square on ed25519.
        let mut enc = [0u8; 32];
        enc[0] = 2;
        assert!(Point::decompress(&enc).is_none());
        let sig = sign(&[9u8; 32], b"m");
        assert!(!verify(&enc, b"m", &sig));
    }

    #[test]
    fn signature_hex_round_trip() {
        let sig = sign(&[3u8; 32], b"hex me");
        let hex = sig.to_hex();
        assert_eq!(hex.len(), 128);
        assert_eq!(Signature::from_hex(&hex), Some(sig));
        assert_eq!(Signature::from_hex("zz"), None);
        assert_eq!(Signature::from_hex("abcd"), None);
    }

    #[test]
    fn signing_is_deterministic() {
        let a = sign(&[5u8; 32], b"same message");
        let b = sign(&[5u8; 32], b"same message");
        assert_eq!(a, b);
        assert_ne!(a, sign(&[5u8; 32], b"different message"));
    }
}
