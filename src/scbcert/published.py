"""Published reference values for the built-in method catalog.

These tables hold independently published analysis results for the catalog
methods: the defining integer polynomials of the optimal boundedness
step-size coefficients, their decimal approximations, recursion starting
values used to reconstruct the explicit one-leg coefficients of the
extrapolated methods, and the witness data for the high-precision BDF4
sign-pattern run.  The `reproduce` CLI targets compare fresh computations
against these rows.
"""

from fractions import Fraction

# selector semantics for the defining polynomial of an optimal value:
#   "unique"   -> the polynomial has exactly one real root
#   "smallest" -> smallest of its real roots
#   "smaller"  -> smaller of its exactly two real roots
GAMMA_SUP_POLYS = {
    "bdf2": {
        "poly": [2, -1],
        "selector": "unique",
        "approx": "0.5",
        "exact": Fraction(1, 2),
    },
    "bdf3": {
        "poly": [5184, -539352, 4277340, -7093698, 3248425],
        "selector": "smallest",
        "approx": "0.831264155297",
    },
    "bdf4": {
        "poly": [147456, -4065024, 97751296, -178921248, 146499984, -39945535],
        "selector": "unique",
        "approx": "0.486220284043",
    },
    "bdf5": {
        "poly": [
            9183300480000000000,
            85812841152000000000,
            11922800956027200000000,
            -158236459797931200000000,
            1300372831455671124000000,
            -3469598208824475416400000,
            5222219230639370911710000,
            -4938342912266137089480000,
            2829602902356809601352800,
            -897140360120473365541380,
            113406532200497326720157,
        ],
        "selector": "smaller",
        "approx": "0.304213712525",
    },
    "bdf6": {
        "poly": [
            301499153838045275528311603200000000,
            122639585534504839818945201438720000000,
            384963168041618344234237602954215424000000,
            27549570033081885223128023207444584857600000,
            688321830171904949334479202088109368934400000,
            -3841469418723966761157769983211793789485056000,
            114843588487750902323103668249803599786305126400,
            -1006269459507863531788997342497299304467812843520,
            5587246198359348966734174906666273788289332150272,
            -17429944795858965010882996868073155329514839408640,
            35959114141443095864886240750517884787497897431040,
            -53357827225132542443145327442029250536098863687680,
            58779078470720235677143648519968524504336318905600,
            -48117131040654192740877887801688549303578668712064,
            28809153195856173726312967696976168633917662024240,
            -12158530101520566099221248226347019432756062262240,
            3383327891741061214240426918034255832010259451480,
            -541370800878125712591610585145194659522378896880,
            33328092641186254550760247661168148768262937067,
        ],
        "selector": "smaller",
        "approx": "0.131359487166",
    },
    "ab1": {
        "poly": [1, -1],
        "selector": "unique",
        "approx": "1",
        "exact": Fraction(1),
    },
    "ab2": {
        "poly": [9, -4],
        "selector": "unique",
        "approx": "0.44444",
        "exact": Fraction(4, 9),
    },
    "ab3": {
        "poly": [529, -84],
        "selector": "unique",
        "approx": "0.15879",
        "exact": Fraction(84, 529),
    },
}

# methods with no positive boundedness step-size coefficient
NO_SCB = ("ab4",)

# methods feasible at every tested step-size coefficient (doubling ladder)
UNBOUNDED = ("bdf1",)

# starting values tau_1..tau_k of the explicit extrapolated methods; given
# the shared a-coefficients they determine the b-coefficients uniquely, so
# they check the weights the catalog derives from the BDF's
EBDF_TAU = {
    3: [Fraction(18, 11), Fraction(126, 121), Fraction(1212, 1331)],
    4: [
        Fraction(48, 25),
        Fraction(504, 625),
        Fraction(10992, 15625),
        Fraction(366516, 390625),
    ],
    5: [
        Fraction(300, 137),
        Fraction(7800, 18769),
        Fraction(1271400, 2571353),
        Fraction(415574100, 352275361),
        Fraction(64978409160, 48261724457),
    ],
}

# high-precision sign-pattern run for BDF4 just above the optimal value:
# with 16000 decimal digits all signs over 1 <= n <= 27000 certify, and the
# negative ones are exactly these; 15000 digits leave at least one unknown.
BDF4_WITNESS_RUN = {
    "gamma": Fraction(48625, 100000),
    "horizon": 27000,
    "digits": 16000,
    "insufficient_digits": 15000,
    "negative_indices": (26814, 26875, 26886, 26936, 26947, 26997),
}

# approximate closed-form data (dominant-root representation) at the optimal
# value for the implicit family; root/coefficient labels sorted by the order
# used in the published tables.  Printed decimals are accurate to their last
# digit (plus/minus one unit).
CLOSED_FORM_AT_OPTIMUM = {
    "bdf3": {
        "c1": "0.50155509",
        "roots": [("0.500518", "0"), ("0.312678", "0.390087")],
        "coeffs": [("0.50155509", "0"), ("-0.0631319", "-0.270418")],
    },
    "bdf4": {
        "c1": "1.21912",
        "roots": [("0.605651", "0"), ("0.437941", "0"), ("0.25655", "0.54863")],
        "coeffs": [("1.21912", "0"), ("-0.583734", "0"), ("-0.123106", "-0.169757")],
    },
    "bdf5": {
        "c1": "0.994377",
        "roots": [
            ("0.737893", "0"),
            ("0.195442", "0.711539"),
            ("0.401777", "0.175943"),
        ],
        "coeffs": [
            ("0.994377", "0"),
            ("-0.117157", "-0.126015"),
            ("-0.186798", "-0.0841337"),
        ],
    },
    "bdf6": {
        "c1": "1.0000077",
        "roots": [
            ("0.87690236", "0"),
            ("0.41284041", "0"),
            ("0.13673253", "0.86617664"),
            ("0.38057439", "0.29512217"),
        ],
        "coeffs": [
            ("1.0000077", "0"),
            ("-0.13742979", "0"),
            ("-0.11295491", "-0.10160183"),
            ("-0.124637633", "-0.050848744"),
        ],
    },
}

# crossover of the dominant-root moduli for the 3-step implicit method; the
# optimal value there comes from the simple-root mechanism instead, so this
# bound is strictly above the optimum.
BDF3_CROSSOVER = Fraction(5, 6)

# simple-root mechanism attribution (index of the first member function whose
# smallest positive simple root equals the optimal value)
SIMPLE_ROOT_INDEX = {"bdf3": 6, "ab1": 2, "ab2": 2, "ab3": 2}

MECHANISM = {
    "bdf1": "unbounded",
    "bdf2": "crossover",
    "bdf3": "simple_root",
    "bdf4": "crossover",
    "bdf5": "crossover",
    "bdf6": "crossover",
    "ab1": "simple_root",
    "ab2": "simple_root",
    "ab3": "simple_root",
    "ab4": "none_positive",
}
