/* The data rows of artjoint.trajectory's CSVs: each float64 cell as
   repr(float) writes it, cells joined by ',' and rows ended by '\n'.
   artjoint_write_rows writes them for export_csv; artjoint_read_rows reads
   them back for import_csv.

   repr writes the shortest decimal that reads back to the same double and,
   of those, the one closest to it, ties to an even last digit (mode 0 of
   Gay's dtoa). The digits here come from Ryu (Adams 2018, "Ryu: fast
   float-to-string conversion", PLDI), which finds the same decimal with
   128-bit integer products instead of bignums. The layout is repr's:
   d.ddde-05 / d.ddde+16 when the decimal exponent is below -4 or at least
   16, else positional with '.0' on integral values; -0.0, inf, -inf, and
   nan for every NaN.

   Ryu scales by 5^i and 2^k / 5^i, each held to 125 bits. Those of a
   multiple of 26 are tabled; the others are one of them times a tabled
   5^o, shifted, plus a 0..2 correction (2 bits per power) that makes the
   result equal to the exact value's. tests/test_trajectory.py recomputes
   every constant below from Python integers.

   artjoint builds this file together with _stepper.c into one library
   (artjoint._native says how) and calls both functions through ctypes. */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 uint128_t;

/* 5^0 .. 5^25 */
static const uint64_t POW5[26] = {
    1u, 5u, 25u, 125u,
    625u, 3125u, 15625u, 78125u,
    390625u, 1953125u, 9765625u, 48828125u,
    244140625u, 1220703125u, 6103515625u, 30517578125u,
    152587890625u, 762939453125u, 3814697265625u, 19073486328125u,
    95367431640625u, 476837158203125u, 2384185791015625u, 11920928955078125u,
    59604644775390625u, 298023223876953125u,
};

/* floor(5^i * 2^(125 - pow5bits(i))), i = 26b, as {low, high} 64 bits */
static const uint64_t POW5_SPLIT[13][2] = {
    {0u, 1152921504606846976u},
    {0u, 1490116119384765625u},
    {1032610780636961552u, 1925929944387235853u},
    {7910200175544436838u, 1244603055572228341u},
    {16941905809032713930u, 1608611746708759036u},
    {13024893955298202172u, 2079081953128979843u},
    {6607496772837067824u, 1343575221513417750u},
    {17332926989895652603u, 1736530273035216783u},
    {13037379183483547984u, 2244412773384604712u},
    {1605989338741628675u, 1450417759929778918u},
    {9630225068416591280u, 1874621017369538693u},
    {665883850346957067u, 1211445438634777304u},
    {14931890668723713708u, 1565756531257009982u},
};

/* floor(2^(pow5bits(i) + 124) / 5^i), i = 26b */
static const uint64_t POW5_INV_SPLIT[13][2] = {
    {0u, 2305843009213693952u},
    {5955668970331000883u, 1784059615882449851u},
    {8982663654677661701u, 1380349269358112757u},
    {7286864317269821293u, 2135987035920910082u},
    {7005857020398200552u, 1652639921975621497u},
    {17965325103354776696u, 1278668206209430417u},
    {8928596168509315047u, 1978643211784836272u},
    {10075671573058298857u, 1530901034580419511u},
    {597001226353042381u, 1184477304306571148u},
    {1527430471115325345u, 1832889850782397517u},
    {12533209867169019541u, 1418129833677084982u},
    {5577825024675947041u, 2194449627517475473u},
    {11006974540203867550u, 1697873161311732311u},
};

/* The correction of power i in bits 2(i % 16) .. 2(i % 16) + 1 of word i / 16:
   for 5^i, i = 0 .. 325, and for 2^k / 5^i, i = 0 .. 290. */
static const uint32_t POW5_CORRECTION[21] = {
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x40000000u, 0x59695995u, 0x55545555u, 0x56555515u,
    0x41150504u, 0x40555410u, 0x44555145u, 0x44504540u,
    0x45555550u, 0x40004000u, 0x96440440u, 0x55565565u,
    0x54454045u, 0x40154151u, 0x55559155u, 0x51405555u,
    0x00000105u,
};
static const uint32_t POW5_INV_CORRECTION[19] = {
    0x54544554u, 0x04055545u, 0x10041000u, 0x00400414u,
    0x40010000u, 0x41155555u, 0x00000454u, 0x00010044u,
    0x40000000u, 0x44000041u, 0x50454450u, 0x55550054u,
    0x51655554u, 0x40004000u, 0x01000001u, 0x00010500u,
    0x51515411u, 0x05555554u, 0x00000000u,
};

/* ceil(log2(5^e)), 1 at e = 0; exact for 0 <= e <= 3528 */
static inline int32_t pow5bits(int32_t e) { return (int32_t)(((uint32_t)e * 1217359u) >> 19) + 1; }
/* floor(log10(2^e)), exact for 0 <= e <= 1650 */
static inline int32_t log10_pow2(int32_t e) { return (int32_t)(((uint32_t)e * 78913u) >> 18); }
/* floor(log10(5^e)), exact for 0 <= e <= 2620 */
static inline int32_t log10_pow5(int32_t e) { return (int32_t)(((uint32_t)e * 732923u) >> 20); }

static inline uint32_t correction(const uint32_t *table, int32_t i) { return (table[i / 16] >> (2 * (i % 16))) & 3u; }

/* (base * 5^o) >> delta, exactly, of a 125-bit base and o <= 25 */
static inline uint128_t scale(const uint64_t *base, int32_t o, int32_t delta)
{
    const uint128_t low = (uint128_t)POW5[o] * base[0], high = (uint128_t)POW5[o] * base[1];
    return (low >> delta) + (high << (64 - delta));
}

/* floor(5^i * 2^(125 - pow5bits(i))) */
static inline uint128_t pow5(int32_t i)
{
    const int32_t b = i / 26 * 26;
    return scale(POW5_SPLIT[i / 26], i - b, pow5bits(i) - pow5bits(b)) + correction(POW5_CORRECTION, i);
}

/* floor(2^(pow5bits(i) + 124) / 5^i) + 1 */
static inline uint128_t pow5_inv(int32_t i)
{
    const int32_t b = (i + 25) / 26 * 26;
    return scale(POW5_INV_SPLIT[b / 26], b - i, pow5bits(b) - pow5bits(i)) + correction(POW5_INV_CORRECTION, i) + 1;
}

/* floor(m * mul / 2^j), 64 <= j */
static inline uint64_t mul_shift(uint64_t m, uint128_t mul, int32_t j)
{
    const uint128_t low = (uint128_t)m * (uint64_t)mul, high = (uint128_t)m * (uint64_t)(mul >> 64);
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

static inline int32_t pow5_factor(uint64_t v)
{
    int32_t n = 0;
    while (v % 5 == 0)
        v /= 5, n++;
    return n;
}

/* The shortest decimal digits * 10^exponent of the finite nonzero double
   of the given biased exponent and mantissa field: Ryu's d2d. */
static uint64_t shortest(uint64_t mantissa, uint32_t biased, int32_t *exponent)
{
    const int32_t e2 = (biased ? (int32_t)biased : 1) - 1023 - 52 - 2;
    const uint64_t m2 = biased ? mantissa | (1ull << 52) : mantissa;
    const int accept_bounds = (m2 & 1) == 0; /* round half even reads an even mantissa's bounds back to it */
    /* The interval of decimals that read back: (mv - 1 - mm_shift, mv + 2) in
       quarter units; the lower gap is half as wide at a power of two. */
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = mantissa != 0 || biased <= 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const int32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + q + 124 + pow5bits(q);
        const uint128_t mul = pow5_inv(q);
        e10 = q;
        vr = mul_shift(mv, mul, j), vp = mul_shift(mv + 2, mul, j), vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 21) { /* at most one of mv, mp, mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = pow5_factor(mv) >= q;
            else if (accept_bounds)
                vm_trailing_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            else
                vp -= pow5_factor(mv + 2) >= q;
        }
    } else {
        const int32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - q;
        const int32_t j = q - (pow5bits(i) - 125);
        const uint128_t mul = pow5(i);
        e10 = q + e2;
        vr = mul_shift(mv, mul, j), vp = mul_shift(mv + 2, mul, j), vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 1) {
            vr_trailing_zeros = 1; /* mv has two trailing zero bits */
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                --vp; /* mp = mv + 2 has one */
        } else if (q < 63) {
            vr_trailing_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }
    /* Drop digits while the interval still holds a shorter decimal. */
    int32_t removed = 0;
    uint32_t last_removed = 0;
    uint64_t output;
    if (vm_trailing_zeros || vr_trailing_zeros) { /* exact bounds or an exact half: the rare case */
        for (; vp / 10 > vm / 10; removed++) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = vr % 10;
            vr /= 10, vp /= 10, vm /= 10;
        }
        if (vm_trailing_zeros) {
            for (; vm % 10 == 0; removed++) {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = vr % 10;
                vr /= 10, vp /= 10, vm /= 10;
            }
        }
        if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
            last_removed = 4; /* an exact half rounds to even */
        output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) { /* two digits at once: most values drop at least two */
            round_up = vr % 100 >= 50;
            vr /= 100, vp /= 100, vm /= 100;
            removed = 2;
        }
        for (; vp / 10 > vm / 10; removed++) {
            round_up = vr % 10 >= 5;
            vr /= 10, vp /= 10, vm /= 10;
        }
        output = vr + (vr == vm || round_up);
    }
    *exponent = e10 + removed;
    return output;
}

/* "00" "01" .. "99" */
static const char PAIRS[200] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                               "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                               "8081828384858687888990919293949596979899";

/* The decimal digits of v, written to end on down; returns where they start. */
static inline char *write_digits(uint64_t v, char *end)
{
    while (v >> 32) {
        uint32_t low = (uint32_t)(v % 100000000);
        v /= 100000000;
        for (int k = 0; k < 4; k++, low /= 100)
            memcpy(end -= 2, PAIRS + 2 * (low % 100), 2);
    }
    uint32_t w = (uint32_t)v;
    for (; w >= 100; w /= 100)
        memcpy(end -= 2, PAIRS + 2 * (w % 100), 2);
    if (w < 10)
        *--end = (char)('0' + w);
    else
        memcpy(end -= 2, PAIRS + 2 * w, 2);
    return end;
}

/* repr of one double at out; returns its length (at most 24). Writes 24
   bytes at out whatever the length: those past it are overwritten by the
   next cell or lie past the end of what the caller reads. */
static inline int write_double(double value, char *out)
{
    uint64_t bits;
    memcpy(&bits, &value, sizeof bits);
    const uint64_t mantissa = bits & ((1ull << 52) - 1);
    const uint32_t biased = (uint32_t)(bits >> 52) & 0x7ff;
    const int negative = bits >> 63;
    if (biased == 0x7ff && mantissa) {
        memcpy(out, "nan", 3);
        return 3;
    }
    if (biased == 0x7ff || (biased == 0 && mantissa == 0)) {
        memcpy(out, (biased ? "-inf" : "-0.0") + !negative, 4);
        return 3 + negative;
    }
    int32_t exponent;
    const uint64_t output = shortest(mantissa, biased, &exponent);
    /* the n digits at d .. end - 1, the text laid out around them in t,
       from cell to p */
    char t[64], *const end = t + 32, *const d = write_digits(output, end), *cell = d, *p;
    const int n = (int)(end - d);
    const int32_t x = exponent + n - 1; /* the scientific exponent */
    if (x < -4 || x >= 16) {
        d[-1] = d[0], d[0] = '.';
        cell = d - 1;
        p = n > 1 ? end : d;
        const int32_t e = x < 0 ? -x : x;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        memcpy(p, PAIRS + 2 * (e % 100), 2);
        p += 2;
    } else if (x < 0) {
        memcpy(d - 8, "00000000", 8);
        cell = d - 1 + x;
        cell[1] = '.';
        p = end;
    } else if (n <= x + 1) {
        memset(end, '0', 16);
        memcpy(d + x + 1, ".0", 2);
        p = d + x + 3;
    } else {
        memmove(d + x + 2, d + x + 1, 16);
        d[x + 1] = '.';
        p = end + 1;
    }
    if (negative)
        *--cell = '-';
    memcpy(out, cell, 24);
    return (int)(p - cell);
}

/* artjoint_write_rows:
   columns:   n_columns addresses of contiguous float64 columns.
   first:     the first row written.
   n_rows:    rows written, from first on.
   out:       receives them; it must hold 25 bytes per cell (24 for the
              longest repr, 1 for the ',' or '\n' after it), as the writer
              may use that room past the bytes it returns.
   Returns the number of bytes written. */
long artjoint_write_rows(const double *const *columns, long n_columns, long first, long n_rows, char *out)
{
    char *p = out;
    for (long r = first; r < first + n_rows; r++) {
        for (long c = 0; c < n_columns; c++) {
            p += write_double(columns[c][r], p);
            *p++ = ',';
        }
        p[-1] = '\n';
    }
    return (long)(p - out);
}

/* The reader takes repr's grammar: -?D+(.D+)?(e[+-]D+)?, inf, -inf and nan.

   A cell whose digits make an integer m <= 2^53 (at most 19 of them from
   the first nonzero one, so that m holds in 64 bits) and whose decimal
   exponent e lies within +-22 is m * 10^e or m / 10^-e in one IEEE
   operation: m and 10^|e| are both exact doubles, so its one rounding is
   the correct one (Clinger 1990, "How to Read Floating Point Numbers
   Accurately", PLDI). Any other cell goes to strtod_l in a C locale, which
   rounds correctly too, whatever LC_NUMERIC the host process has set. */

/* 10^0 .. 10^22, each exact in a double */
static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static locale_t c_locale; /* made once, when the library loads */

__attribute__((constructor)) static void make_c_locale(void) { c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0); }

static inline int is_digit(char c) { return (unsigned char)(c - '0') < 10; }

/* The cell at p: its value at *value and the end of its text, or NULL where
   the text at p does not start with the grammar. The text must end in a
   byte outside the grammar, as the caller's NUL does. */
static const char *read_double(const char *p, double *value)
{
    const char *const cell = p, *start;
    const int negative = *p == '-';
    p += negative;
    if (p[0] == 'i' && p[1] == 'n' && p[2] == 'f') {
        *value = negative ? -INFINITY : INFINITY;
        return p + 3;
    }
    if (!negative && p[0] == 'n' && p[1] == 'a' && p[2] == 'n') {
        const uint64_t bits = 0x7ff8000000000000u; /* float('nan') */
        memcpy(value, &bits, sizeof bits);
        return p + 3;
    }
    uint64_t m = 0;
    int digits = 0; /* from the first nonzero one on */
    long e10 = 0;
    for (start = p; is_digit(*p); p++)
        m = 10 * m + (uint64_t)(*p - '0'), digits += m != 0;
    if (p == start)
        return NULL;
    if (*p == '.') {
        for (start = ++p; is_digit(*p); p++)
            m = 10 * m + (uint64_t)(*p - '0'), digits += m != 0;
        if (p == start)
            return NULL;
        e10 = -(long)(p - start);
    }
    if (*p == 'e') {
        const int minus = p[1] == '-';
        if (!minus && p[1] != '+')
            return NULL;
        long x = 0; /* stops growing past 10^17, beyond any digit count a text can hold */
        for (start = p += 2; is_digit(*p); p++)
            x = x < 100000000000000000 ? 10 * x + (*p - '0') : x;
        if (p == start)
            return NULL;
        e10 += minus ? -x : x;
    }
    if (digits <= 19 && m <= 1ull << 53 && -22 <= e10 && e10 <= 22) {
        const double v = e10 < 0 ? (double)m / POW10[-e10] : (double)m * POW10[e10];
        *value = negative ? -v : v;
        return p;
    }
    if (c_locale == (locale_t)0)
        return NULL;
    char *end;
    *value = strtod_l(cell, &end, c_locale);
    return end == p ? p : NULL;
}

/* artjoint_read_rows:
   text:      size bytes of CSV data rows, then a NUL (text[size] == 0).
   n_columns: cells per row.
   at_end:    whether the text runs to the end of the file, so that a last
              line with no '\n' is a row too.
   out:       receives the rows, n_columns doubles each; it must have room
              for size / (2 n_columns) + 1 rows, as a row takes at least one
              byte and one separator per cell.
   used:      receives the number of bytes read: up to the end of the last
              whole line, or all of them at the end.
   Returns the number of rows read, or -1 at a line that is not n_columns
   cells of the grammar joined by ',' and ended by '\n'. */
long artjoint_read_rows(const char *text, long size, long n_columns, int at_end, double *out, long *used)
{
    const char *const end = text + size;
    const char *row = text;
    long rows = 0;
    for (; row < end; rows++) {
        double *const values = out + rows * n_columns;
        const char *p = row;
        for (long c = 0; c < n_columns && p; c++) {
            p = read_double(p, values + c);
            if (p && c + 1 < n_columns)
                p = *p == ',' ? p + 1 : NULL;
        }
        if (p && *p == '\n')
            row = p + 1;
        else if (p == end && at_end) /* the last line, with no '\n' */
            row = end;
        else if (!at_end && !memchr(row, '\n', (size_t)(end - row))) /* a line the text cuts off */
            break;
        else
            return -1;
    }
    *used = (long)(row - text);
    return rows;
}
