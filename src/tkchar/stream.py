"""The oracle's sample stream: numpy's default_rng((seed, index)) draws.

draw() defines the stream: for each sample index a fresh
np.random.default_rng((seed, index)) makes the calls random(),
integers(0, K), random() and normal(size=4) (_calls).  Building one
Generator per index costs about 22 us.  draws() gives the same numbers for
a whole range of indices as arrays.  Its replica computes them with uint64
array arithmetic, in four pieces:

- SeedSequence: the entropy words of (seed, index) hashed into a pool of
  four 32-bit words, expanded by generate_state(4, np.uint64);
- PCG64 (O'Neill 2014, "PCG: a family of simple fast space-efficient
  statistically good algorithms"): a 128-bit LCG seeded from those words,
  stepped before each XSL-RR output, held as four 32-bit limbs;
- random(): the top 53 bits of one output, integers(0, K): Lemire's
  bounded integer on the low 32 bits of one output;
- normal(): the fast path of numpy's ziggurat (Marsaglia & Tsang 2000,
  "The Ziggurat Method for Generating Random Variables") with its 256-entry
  tables _KI and _WI, which numpy does not export; tests/test_stream.py
  recovers both from numpy.

Only the common path of each routine is computed.  An index whose draw
leaves it (a Lemire threshold test, a ziggurat wedge or tail, about 6% of
indices) is marked slow, and draws() makes its calls on one numpy
Generator loaded with the PCG64 state the replica seeded for it, about
10 us against 30 us for a fresh default_rng.  The replica covers seeds
below SEEDS = 2**64 and K up to K_MAX = 2**32, which verify.SampleConfig
enforces: past them numpy hashes more entropy words or draws integers(0, K)
on its 64-bit path.  In every block of GUARD indices draws() draws the
first fast and the first slow index again with draw(), so a numpy release
that changed the stream or its seeding makes it raise instead of moving a
byte.
"""

from __future__ import annotations

import numpy as np

MASK32 = 0xFFFFFFFF

# the seeds and the K of integers(0, K) that the replica covers
SEEDS = 1 << 64
K_MAX = 1 << 32

# Indices per block of the guard: in every block of GUARD indices (from
# index 0), the first index the replica draws and the first it leaves to a
# seeded Generator are drawn again by draw() and must agree.
GUARD = 512

# numpy/random/bit_generator.pyx: SeedSequence's hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit multiplier, as 32-bit limbs from the lowest
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_LIMBS = tuple((_PCG_MULT >> (32 * i)) & MASK32 for i in range(4))

# ziggurat tables of numpy's random_standard_normal (ki_double, wi_double)
_KI = np.array(
    [
        0xef33d8025ef6a, 0x0000000000000, 0xc08be98fbc6a8, 0xda354fabd8142, 0xe51f67ec1eeea,
        0xeb255e9d3f77e, 0xeef4b817ecab9, 0xf19470afa44aa, 0xf37ed61ffcb18, 0xf4f469561255c,
        0xf61a5e41ba396, 0xf707a755396a4, 0xf7cb2ec28449a, 0xf86f10c6357d3, 0xf8fa6578325de,
        0xf9724c74dd0da, 0xf9da907dbf509, 0xfa360f581fa74, 0xfa86fde5b4bf8, 0xfacf160d354dc,
        0xfb0fb6718b90f, 0xfb49f8d5374c6, 0xfb7ec2366fe77, 0xfbaece9a1e50e, 0xfbdab9d040bed,
        0xfc03060ff6c57, 0xfc2821037a248, 0xfc4a67ae25bd1, 0xfc6a2977aee31, 0xfc87aa92896a4,
        0xfca325e4bde85, 0xfcbcce902231a, 0xfcd4d12f839c4, 0xfceb54d8fec99, 0xfd007bf1dc930,
        0xfd1464dd6c4e6, 0xfd272a8e2f450, 0xfd38e4ff0c91e, 0xfd49a9990b478, 0xfd598b8920f53,
        0xfd689c08e99ec, 0xfd76ea9c8e832, 0xfd848547b08e8, 0xfd9178bad2c8c, 0xfd9dd07a7add2,
        0xfda9970105e8c, 0xfdb4d5dc02e20, 0xfdbf95c5bfcd0, 0xfdc9debb99a7d, 0xfdd3b8118729d,
        0xfddd288342f90, 0xfde6364369f64, 0xfdeee708d514e, 0xfdf7401a6b42e, 0xfdff46599ed40,
        0xfe06fe4bc24f2, 0xfe0e6c225a258, 0xfe1593c28b84c, 0xfe1c78cbc3f99, 0xfe231e9db1caa,
        0xfe29885da1b91, 0xfe2fb8fb54186, 0xfe35b33558d4a, 0xfe3b799d0002a, 0xfe410e99ead7f,
        0xfe46746d47734, 0xfe4bad34c095c, 0xfe50baed29524, 0xfe559f74ebc78, 0xfe5a5c8e41212,
        0xfe5ef3e138689, 0xfe6366fd91078, 0xfe67b75c6d578, 0xfe6be661e11aa, 0xfe6ff55e5f4f2,
        0xfe73e5900a702, 0xfe77b823e9e39, 0xfe7b6e37070a2, 0xfe7f08d774243, 0xfe8289053f08c,
        0xfe85efb35173a, 0xfe893dc840864, 0xfe8c741f0cebc, 0xfe8f9387d4ef6, 0xfe929cc879b1d,
        0xfe95909d388ea, 0xfe986fb939aa2, 0xfe9b3ac714866, 0xfe9df2694b6d5, 0xfea0973abe67c,
        0xfea329cf166a4, 0xfea5aab32952c, 0xfea81a6d5741a, 0xfeaa797de1cf0, 0xfeacc85f3d920,
        0xfeaf07865e63c, 0xfeb13762fec13, 0xfeb3585fe2a4a, 0xfeb56ae3162b4, 0xfeb76f4e284fa,
        0xfeb965fe62014, 0xfebb4f4cf9d7c, 0xfebd2b8f449d0, 0xfebefb16e2e3e, 0xfec0be31ebde8,
        0xfec2752b15a15, 0xfec42049dafd3, 0xfec5bfd29f196, 0xfec75406ceef4, 0xfec8dd2500cb4,
        0xfeca5b6911f12, 0xfecbcf0c427fe, 0xfecd38454fb15, 0xfece97488c8b3, 0xfecfec47f91b7,
        0xfed1377358528, 0xfed278f844903, 0xfed3b10242f4c, 0xfed4dfbad586e, 0xfed605498c3dd,
        0xfed721d414fe8, 0xfed8357e4a982, 0xfed9406a42cc8, 0xfeda42b85b704, 0xfedb3c8746ab4,
        0xfedc2df416652, 0xfedd171a46e52, 0xfeddf813c8ad3, 0xfeded0f909980, 0xfedfa1e0fd414,
        0xfee06ae124bc4, 0xfee12c0d95a06, 0xfee1e579006e0, 0xfee29734b6524, 0xfee34150ae4bc,
        0xfee3e3db89b3c, 0xfee47ee2982f4, 0xfee51271db086, 0xfee59e9407f41, 0xfee623528b42e,
        0xfee6a0b5897f1, 0xfee716c3e077a, 0xfee7858327b82, 0xfee7ecf7b06ba, 0xfee84d2484ab2,
        0xfee8a60b66343, 0xfee8f7accc851, 0xfee94207e25da, 0xfee9851a829ea, 0xfee9c0e13485c,
        0xfee9f557273f4, 0xfeea22762ccae, 0xfeea4836b42ac, 0xfeea668fc2d71, 0xfeea7d76ed6fa,
        0xfeea8ce04fa0a, 0xfeea94be8333b, 0xfeea950296410, 0xfeea8d9c0075e, 0xfeea7e7897654,
        0xfeea678481d24, 0xfeea48aa29e83, 0xfeea21d22e4da, 0xfee9f2e352024, 0xfee9bbc26af2e,
        0xfee97c524f2e4, 0xfee93473c0a3a, 0xfee8e40557516, 0xfee88ae369c7a, 0xfee828e7f3dfd,
        0xfee7bdea7b888, 0xfee749bff37ff, 0xfee6cc3a9bd5e, 0xfee64529e007e, 0xfee5b45a32888,
        0xfee51994e57b6, 0xfee474a0006cf, 0xfee3c53e12c50, 0xfee30b2e02ad8, 0xfee2462ad8205,
        0xfee175eb83c5a, 0xfee09a22a1447, 0xfedfb27e349cc, 0xfedebea76216c, 0xfeddbe422047e,
        0xfedcb0ece39d3, 0xfedb964042cf4, 0xfeda6dce938c9, 0xfed937237e98d, 0xfed7f1c38a836,
        0xfed69d2b9c02b, 0xfed538d06ae00, 0xfed3c41dea422, 0xfed23e76a2fd8, 0xfed0a732fe644,
        0xfecefda07fe34, 0xfecd4100eb7b8, 0xfecb708956eb4, 0xfec98b61230c1, 0xfec790a0da978,
        0xfec57f50f31fe, 0xfec356686c962, 0xfec114cb4b335, 0xfebeb948e6fd0, 0xfebc429a0b692,
        0xfeb9af5ee0cdc, 0xfeb6fe1c98542, 0xfeb42d3ad1f9e, 0xfeb13b00b2d4b, 0xfeae2591a02e9,
        0xfeaaeae992257, 0xfea788d8ee326, 0xfea3fcffd73e5, 0xfea044c8dd9f6, 0xfe9c5d62f563b,
        0xfe9843ba947a4, 0xfe93f471d4728, 0xfe8f6bd76c5d6, 0xfe8aa5dc4e8e6, 0xfe859e07ab1ea,
        0xfe804f690a940, 0xfe7ab488233c0, 0xfe74c751f6aa5, 0xfe6e8102aa202, 0xfe67da0b6abd8,
        0xfe60c9f38307e, 0xfe5947338f742, 0xfe51470977280, 0xfe48bd436f458, 0xfe3f9bffd1e37,
        0xfe35d35eeb19c, 0xfe2b5122fe4fe, 0xfe20003995557, 0xfe13c82788314, 0xfe068c4ee67b0,
        0xfdf82b02b71aa, 0xfde87c57efeaa, 0xfdd7509c63bfd, 0xfdc46e529bf13, 0xfdaf8f82e0282,
        0xfd985e1b2ba75, 0xfd7e6ef48cf04, 0xfd613adbd650b, 0xfd40149e2f012, 0xfd1a1a7b4c7ac,
        0xfcee204761f9e, 0xfcba8d85e11b2, 0xfc7d26ecd2d22, 0xfc32b2f1e22ed, 0xfbd6581c0b83a,
        0xfb606c4005434, 0xfac40582a2874, 0xf9e971e014598, 0xf89fa48a41dfc, 0xf66c5f7f0302c,
        0xf1a5a4b331c4a,
    ],
    dtype=np.uint64,
)
_WI = np.array(
    [
        8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
        7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
        9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
        1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
        1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
        1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
        1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
        1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
        1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
        1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
        1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
        1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
        1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
        1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
        2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
        2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
        2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
        2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
        2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
        2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
        2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
        2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
        2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
        2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
        2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
        2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
        2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
        2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
        2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
        2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
        2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
        2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
        2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
        2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
        3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
        3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
        3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
        3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
        3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
        3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
        3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
        3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
        3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
        3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
        3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
        3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
        3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
        3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
        3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
        3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
        3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
        3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
        3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
        3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
        3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
        3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
        4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
        4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
        4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
        4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
        4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
        4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
        4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
        4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
        4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
        4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
        4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
        4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
        4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
        4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
        4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
        4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
        5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
        5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
        5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
        5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
        5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
        5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
        5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
        5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
        6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
        6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
        6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
        6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
        7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
        8.113849337656484e-16,
    ],
    dtype=np.float64,
)


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive SeedSequence hash."""
    while True:
        nxt = (init * mult) & MASK32
        yield init, nxt
        init = nxt


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = ((value ^ xor) * mult) & MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = (x * _MIX_MULT_L - y * _MIX_MULT_R) & MASK32
    return value ^ (value >> _XSHIFT)


def _state_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, np.uint64) as eight uint32
    words, the low half of each uint64 first, for at most four entropy
    words: the pool is the words padded with zeros."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    padded = entropy + [np.zeros_like(entropy[0])] * (_POOL_SIZE - len(entropy))
    pool = [_hashmix(word, constants) for word in padded]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    return [_hashmix(pool[i % _POOL_SIZE], constants) for i in range(8)]


def _carry(columns: list[np.ndarray]) -> list[np.ndarray]:
    """32-bit limbs, mod 2**128, of a number given as column sums below 2**63."""
    limbs, carry = [], 0
    for column in columns:
        column = column + carry
        limbs.append(column & MASK32)
        carry = column >> 32
    return limbs


def _step(state: list[np.ndarray], inc: list[np.ndarray]) -> list[np.ndarray]:
    """One PCG64 step, state * multiplier + inc mod 2**128, on 32-bit limbs."""
    columns = list(inc)
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * _MULT_LIMBS[j]
            columns[i + j] = columns[i + j] + (product & MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


def _output(state: list[np.ndarray]) -> np.ndarray:
    """PCG64's XSL-RR output: the two 64-bit halves xored, rotated right by
    the top six bits."""
    high = state[2] | (state[3] << 32)
    value = high ^ (state[0] | (state[1] << 32))
    rot = high >> 58
    return (value >> rot) | (value << ((64 - rot) & 63))


def _double(raw: np.ndarray) -> np.ndarray:
    """random(): the top 53 bits of an output times 2**-53."""
    return (raw >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


def _seeded(seed: int, indices: range) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """PCG64's (state, inc) as 32-bit limbs, seeded from SeedSequence((seed,
    index)) for every index: state 0, a step, the seed added, a step.

    SeedSequence takes an int as its uint32 words, lowest first.  A seed
    below 2**64 is one or two words, and the index is always two here, so
    the pool holds at most four words, and a zero high word hashes as the
    zero padding of a one-word index does."""
    index = np.arange(indices.start, indices.stop, dtype=np.uint64)
    words = [seed & MASK32, seed >> 32] if seed > MASK32 else [seed]
    words = [np.full(len(indices), w, dtype=np.uint64) for w in words]
    w = _state_words(words + [index & MASK32, index >> 32])
    inc = _carry([2 * w[6] + 1, 2 * w[7], 2 * w[4], 2 * w[5]])
    return _step(_carry([x + y for x, y in zip(inc, (w[2], w[3], w[0], w[1]))]), inc), inc


def replica(
    seed: int, indices: range, fraction: float, k_red: int, k_irr: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(fast, reducible, j, u, g, seeded): draw()'s stream for every index of
    indices (a range of step 1), as uint64 array arithmetic alone.

    fast marks the indices whose draws stayed on the common path of every
    routine; the values of the others are meaningless.  g has one row of
    four Gaussians per index.  seeded holds each index's PCG64 state right
    after seeding, one row (state low, state high, inc low, inc high) of
    64-bit words per index, which _generator_draws loads.
    """
    # every draw takes the output of one more step from the seeded state
    state, inc = _seeded(seed, indices)
    limbs = [*state, *inc]
    seeded = np.stack([limbs[i] | (limbs[i + 1] << 32) for i in range(0, 8, 2)], axis=1)
    raw = []
    for _ in range(7):
        state = _step(state, inc)
        raw.append(_output(state))

    reducible = _double(raw[0]) < fraction
    # integers(0, K): nothing drawn for K == 1, else Lemire's m = low32 * K
    k = np.where(reducible, k_red, k_irr).astype(np.uint64)
    has_j = k > 1
    m = (raw[1] & MASK32) * k
    fast = ~has_j | ((m & MASK32) >= k)
    j = np.where(has_j, m >> 32, 0).astype(np.int64)
    u = _double(np.where(has_j, raw[2], raw[1]))
    # normal(): 8 bits of layer, a sign bit and 52 bits of magnitude
    g = np.empty((len(indices), 4))
    for q in range(4):
        r = np.where(has_j, raw[3 + q], raw[2 + q])
        layer = (r & 0xFF).astype(np.intp)
        rabs = (r >> 9) & ((1 << 52) - 1)
        fast &= rabs < _KI[layer]
        x = rabs.astype(np.float64) * _WI[layer]
        g[:, q] = 0.0 + 1.0 * np.where(((r >> 8) & 1) == 1, -x, x)
    return fast, reducible, j, u, g, seeded


def _calls(
    rng: np.random.Generator, fraction: float, k_red: int, k_irr: int
) -> tuple[bool, int, float, np.ndarray]:
    """One draw (reducible, j, u, g) from rng: the Generator calls, in their
    order, that define every sample.

    j is the raw reducible circle (K = k_red) or the index into
    enumerate_irr (K = k_irr), u the uniform that becomes the circle angle
    2*pi*u or the coordinate t, and g the four Gaussians of the Haar
    conjugator.
    """
    reducible = rng.random() < fraction
    j = int(rng.integers(0, k_red if reducible else k_irr))
    return reducible, j, rng.random(), rng.normal(size=4)


def draw(
    seed: int, index: int, fraction: float, k_red: int, k_irr: int
) -> tuple[bool, int, float, np.ndarray]:
    """The index-th draw of the stream: _calls on default_rng((seed, index))."""
    return _calls(np.random.default_rng((seed, index)), fraction, k_red, k_irr)


def _generator_draws(seeded: np.ndarray, *args) -> list[tuple[bool, int, float, np.ndarray]]:
    """_calls(rng, *args) on one Generator loaded with each row of the
    replica's seeded states in turn: each row's index's draw, as
    default_rng((seed, index)) makes it."""
    rng = np.random.Generator(np.random.PCG64(0))
    state = rng.bit_generator.state  # a fresh one: no buffered uint32
    drawn = []
    for state_lo, state_hi, inc_lo, inc_hi in seeded.tolist():
        state["state"] = {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}
        rng.bit_generator.state = state
        drawn.append(_calls(rng, *args))
    return drawn


def _bits(reducible, j, u, g) -> tuple[bool, int, bytes]:
    """One index's draw with its floats as IEEE bytes, so -0.0 != 0.0."""
    return bool(reducible), int(j), np.append(u, g).tobytes()


def draws(
    seed: int, indices: range, fraction: float, k_red: int, k_irr: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """draw(seed, i, fraction, k_red, k_irr) for every i in indices (a range
    of step 1), as arrays (reducible, j, u, g), g one row per index.

    The replica computes them; an index it leaves to numpy is drawn by
    _generator_draws from its seeded state.  In each GUARD block the first
    index of either kind is drawn again by draw() and must agree bit for
    bit, else RuntimeError.
    """
    args = (fraction, k_red, k_irr)
    fast, *arrays, seeded = replica(seed, indices, *args)
    slow = np.flatnonzero(~fast)
    for column, values in zip(arrays, zip(*_generator_draws(seeded[slow], *args))):
        column[slow] = values
    # the first position of each (GUARD block, fast) key: the guarded indices
    key = np.arange(indices.start, indices.stop) // GUARD * 2 + fast
    for pos in np.unique(key, return_index=True)[1].tolist():
        if _bits(*draw(seed, indices[pos], *args)) != _bits(*(c[pos] for c in arrays)):
            raise RuntimeError(
                f"tkchar.stream differs from numpy's default_rng((seed, index)) at "
                f"({seed}, {indices[pos]}); numpy {np.__version__} changed its stream"
            )
    return tuple(arrays)
