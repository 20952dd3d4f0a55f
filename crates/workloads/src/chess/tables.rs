//! Per-square tables the move generator and the attack test read
//! instead of stepping square by square: where a knight, a king or a
//! pawn of each colour lands, and the squares along each slider ray.
//! Built at compile time from the same deltas the offset walk used.

/// Knight deltas `(file, rank)`, in the order the generator emits.
pub(crate) const KNIGHT_DELTAS: [(i8, i8); 8] = [
    (1, 2),
    (2, 1),
    (2, -1),
    (1, -2),
    (-1, -2),
    (-2, -1),
    (-2, 1),
    (-1, 2),
];
/// King deltas, in the order the generator emits.
pub(crate) const KING_DELTAS: [(i8, i8); 8] = [
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, -1),
    (-1, 0),
    (-1, 1),
];
/// The eight slider directions: the bishop's four, then the rook's
/// four. A queen walks all eight in this order.
pub(crate) const DIRS: [(i8, i8); 8] = [
    (1, 1),
    (1, -1),
    (-1, -1),
    (-1, 1),
    (0, 1),
    (1, 0),
    (0, -1),
    (-1, 0),
];

/// The square `(df, dr)` away from `sq`, if on the board.
const fn offset(sq: usize, (df, dr): (i8, i8)) -> Option<usize> {
    let f = (sq % 8) as i8 + df;
    let r = (sq / 8) as i8 + dr;
    if f >= 0 && f < 8 && r >= 0 && r < 8 {
        Some((r * 8 + f) as usize)
    } else {
        None
    }
}

/// A leaper's targets from one square, in delta order, and the same
/// squares as bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Leaps {
    /// `to[..len]` are the targets.
    pub(crate) to: [u8; 8],
    pub(crate) len: u8,
    pub(crate) bits: u64,
}

const fn leaps(deltas: [(i8, i8); 8]) -> [Leaps; 64] {
    let mut t = [Leaps {
        to: [0; 8],
        len: 0,
        bits: 0,
    }; 64];
    let mut sq = 0;
    while sq < 64 {
        let mut d = 0;
        while d < 8 {
            if let Some(to) = offset(sq, deltas[d]) {
                let l = &mut t[sq];
                l.to[l.len as usize] = to as u8;
                l.len += 1;
                l.bits |= 1 << to;
            }
            d += 1;
        }
        sq += 1;
    }
    t
}

/// Knight targets per square.
pub(crate) const KNIGHT: [Leaps; 64] = leaps(KNIGHT_DELTAS);
/// King targets per square.
pub(crate) const KING: [Leaps; 64] = leaps(KING_DELTAS);

/// `RAYS[sq][d]`: the squares from `sq` (exclusive) to the board's
/// edge along `DIRS[d]`.
pub(crate) const RAYS: [[u64; 8]; 64] = {
    let mut t = [[0; 8]; 64];
    let mut sq = 0;
    while sq < 64 {
        let mut d = 0;
        while d < 8 {
            let mut cur = sq;
            while let Some(next) = offset(cur, DIRS[d]) {
                t[sq][d] |= 1 << next;
                cur = next;
            }
            d += 1;
        }
        sq += 1;
    }
    t
};

/// Every square a bishop on `sq` could reach on an empty board: the
/// union of its four rays.
pub(crate) const DIAGONALS: [u64; 64] = span(0);
/// Every square a rook on `sq` could reach on an empty board.
pub(crate) const LINES: [u64; 64] = span(4);

const fn span(first: usize) -> [u64; 64] {
    let mut t = [0; 64];
    let mut sq = 0;
    while sq < 64 {
        let r = RAYS[sq];
        t[sq] = r[first] | r[first + 1] | r[first + 2] | r[first + 3];
        sq += 1;
    }
    t
}

/// Whether `DIRS[d]` raises the square index, so that the square
/// nearest the origin on a ray is its lowest bit; otherwise it is the
/// highest.
#[inline(always)]
pub(crate) const fn ascending(d: usize) -> bool {
    let (df, dr) = DIRS[d];
    dr > 0 || (dr == 0 && df > 0)
}

/// What `DIRS[d]` adds to a square index.
#[inline(always)]
pub(crate) const fn step(d: usize) -> isize {
    let (df, dr) = DIRS[d];
    (dr * 8 + df) as isize
}

/// The square of `bits` nearest the origin of a ray along `DIRS[d]`.
/// `bits` must be a non-empty subset of that ray.
#[inline(always)]
pub(crate) fn nearest(d: usize, bits: u64) -> usize {
    if ascending(d) {
        bits.trailing_zeros() as usize
    } else {
        63 - bits.leading_zeros() as usize
    }
}

/// The square of `bits` farthest from the origin of a ray along
/// `DIRS[d]`. `bits` must be a non-empty subset of that ray.
#[inline(always)]
pub(crate) fn farthest(d: usize, bits: u64) -> usize {
    if ascending(d) {
        63 - bits.leading_zeros() as usize
    } else {
        bits.trailing_zeros() as usize
    }
}

/// `PAWN_ATTACKS[colour][sq]`: the squares a pawn of that colour on
/// `sq` captures on. The pawns of colour `c` that attack `sq` are the
/// pawns on `PAWN_ATTACKS[c.opponent()][sq]`.
pub(crate) const PAWN_ATTACKS: [[u64; 64]; 2] = {
    let mut t = [[0; 64]; 2];
    let mut sq = 0;
    while sq < 64 {
        let mut c = 0;
        while c < 2 {
            let fwd = if c == 0 { 1 } else { -1 };
            let mut df = -1;
            while df <= 1 {
                if let Some(to) = offset(sq, (df, fwd)) {
                    t[c][sq] |= 1 << to;
                }
                df += 2;
            }
            c += 1;
        }
        sq += 1;
    }
    t
};
