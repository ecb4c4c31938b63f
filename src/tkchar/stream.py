"""The oracle's sample stream: the draws of numpy's default_rng((seed, index)).

Each sample index has its own stream, the one numpy's default_rng((seed,
index)) gives, and makes the calls random(), integers(0, K), random() and
normal(size=4) on it.  This module computes that stream without numpy's
Generator, which it never imports: draw() defines one index's draw in
Python ints, and draws() gives a whole range's as arrays.  The stream has
four parts:

- SeedSequence: the entropy words of (seed, index) hashed into a pool of
  four 32-bit words, expanded by generate_state(4, np.uint64);
- PCG64 (O'Neill 2014, "PCG: a family of simple fast space-efficient
  statistically good algorithms"): a 128-bit LCG seeded from those words,
  stepped before each XSL-RR output;
- random(): the top 53 bits of one output; integers(0, K): Lemire's
  bounded integer ("Fast random integer generation in an interval", ACM
  TOMACS 2019) on PCG64's buffered 32-bit halves, the low half of an
  output first, then its high half;
- normal(): numpy's ziggurat (Marsaglia & Tsang 2000, "The Ziggurat Method
  for Generating Random Variables") with its 256-entry tables _KI, _WI and
  _FI, which numpy does not export; tests/test_stream.py recovers them
  from numpy.

draws() runs a replica of the common path of every routine as uint64 array
arithmetic, with PCG64 in 32-bit limbs.  An index whose draw leaves it (a
Lemire retry, a ziggurat wedge or tail, about 6% of indices) is marked
slow, and draws() completes it with draw()'s scalar code, started from the
PCG64 state the replica seeded for it.  The stream covers seeds below
SEEDS = 2**64 and K up to K_MAX = 2**32, which verify.SampleConfig
enforces: past them numpy hashes more entropy words or draws integers(0, K)
on its 64-bit path.  In every block of GUARD indices draws() draws the
first fast and the first slow index again with draw(), so the array
replica and the scalar definition cannot part without it raising.  A slow
index goes through the same _complete on both sides, so the guard checks
the seeding and the hand-off of the seeded state, not _complete itself;
only tests/test_stream.py pins _complete (and all of draw()) to numpy.
"""

from __future__ import annotations

import math

import numpy as np

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

# the seeds and the K of integers(0, K) that the stream covers
SEEDS = 1 << 64
K_MAX = 1 << 32

# Indices per block of the guard: in every block of GUARD indices (from
# index 0), the first index the replica draws and the first it leaves to
# the scalar code are drawn again by draw() and must agree.
GUARD = 512

# SeedSequence's hash constants, from numpy's bit_generator.pyx
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit multiplier, and as 32-bit limbs from the lowest
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_LIMBS = tuple((_PCG_MULT >> (32 * i)) & MASK32 for i in range(4))

# the ziggurat's tail: numpy's ziggurat_nor_r and ziggurat_nor_inv_r
_R = 3.654152885361009
_INV_R = 0.2736612373297583

# ziggurat tables of numpy's random_standard_normal (ki_double, wi_double,
# fi_double); the replica reads the first two, the scalar code all three
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
_FI = [
    1.0, 0.9771017012676716, 0.9598790918001067,
    0.9451989534422996, 0.9320600759592305, 0.919991505039347,
    0.9087264400521309, 0.8980959218983434, 0.8879846607558334,
    0.8783096558089174, 0.869008688036857, 0.8600336211963315,
    0.851346258458678, 0.8429156531122042, 0.8347162929868834,
    0.8267268339462214, 0.8189291916037024, 0.8113078743126563,
    0.8038494831709643, 0.796542330422959, 0.7893761435660246,
    0.7823418326548025, 0.7754313049811872, 0.7686373157984863,
    0.7619533468367954, 0.7553735065070961, 0.7488924472191568,
    0.742505296340151, 0.7362075981268627, 0.7299952645614762,
    0.7238645334686302, 0.717811932630722, 0.7118342488782484,
    0.7059285013327543, 0.7000919181365116, 0.6943219161261167,
    0.6886160830046718, 0.6829721616449949, 0.6773880362187735,
    0.6718617198970821, 0.6663913439087501, 0.6609751477766631,
    0.6556114705796973, 0.6502987431108167, 0.6450354808208223,
    0.6398202774530566, 0.6346517992876236, 0.6295287799248367,
    0.6244500155470265, 0.6194143606058343, 0.6144207238889139,
    0.6094680649257734, 0.6045553906974678, 0.5996817526191253,
    0.5948462437679874, 0.590047996332826, 0.5852861792633715,
    0.5805599961007909, 0.5758686829723537, 0.5712115067352532,
    0.5665877632561644, 0.5619967758145243, 0.557437893618766,
    0.5529104904258323, 0.5484139632552658, 0.5439477311900263,
    0.5395112342569521, 0.5351039323804576, 0.5307253044036621,
    0.5263748471716845, 0.5220520746723218, 0.5177565172297564,
    0.513487720747327, 0.5092452459957479, 0.5050286679434681,
    0.5008375751261487, 0.4966715690524897, 0.49253026364386854,
    0.48841328470545803, 0.4843202694266833, 0.48025086590904675,
    0.47620473271950586, 0.4721815384677302, 0.4681809614056936,
    0.46420268904817436, 0.46024641781284287, 0.45631185267871643,
    0.4523987068618485, 0.44850670150720306, 0.4446355653957394,
    0.440785034665804, 0.43695485254798555, 0.43314476911265226,
    0.4293545410294414, 0.42558393133802197, 0.4218327092294959,
    0.4181006498378482, 0.4143875340408911, 0.41069314827018816,
    0.40701728432947337, 0.4033597392211145, 0.3997203149801972,
    0.39609881851583245, 0.3924950614593156, 0.3889088600187887,
    0.3853400348400773, 0.38178841087339366, 0.3782538172456192,
    0.37473608713789114, 0.3712350576682395, 0.3677505697790326,
    0.36428246812900406, 0.36083060098964803, 0.3573948201457805,
    0.3539749808000768, 0.3505709414814061, 0.34718256395679364,
    0.3438097131468507, 0.34045225704452187, 0.33711006663700605,
    0.33378301583071845, 0.3304709813791636, 0.3271738428136014,
    0.3238914823763911, 0.32062378495690536, 0.3173706380299136,
    0.3141319315963372, 0.3109075581262865, 0.30769741250429206,
    0.30450139197665, 0.30131939610080305, 0.2981513266966855,
    0.2949970877999618, 0.2918565856170952, 0.2887297284821829,
    0.28561642681550176, 0.2825165930837076, 0.27943014176163794,
    0.2763569892956683, 0.27329705406857707, 0.27025025636587546,
    0.26721651834356147, 0.2641957639972612, 0.2611879191327212,
    0.25819291133761924, 0.25521066995466196, 0.2522411260559422,
    0.24928421241852852, 0.24633986350126383, 0.2434080154227503,
    0.2404886059405006, 0.2375815744312381, 0.23468686187233,
    0.23180441082433872, 0.22893416541468034, 0.22607607132238028,
    0.22323007576391748, 0.220396127480152, 0.21757417672433113,
    0.21476417525117358, 0.21196607630703018, 0.20917983462112508,
    0.2064054063978808, 0.2036427493103349, 0.2008918224946566,
    0.19815258654577514, 0.1954250035141343, 0.19270903690358918,
    0.19000465167046499, 0.1873118142238003, 0.18463049242679927,
    0.18196065559952251, 0.17930227452284758, 0.17665532144373486,
    0.17401977008183855, 0.17139559563750575, 0.1687827748012113,
    0.1661812857644819, 0.16359110823236558, 0.161012223437511,
    0.15844461415592428, 0.1558882647244792, 0.15334316106026286,
    0.15080929068184568, 0.14828664273257455, 0.14577520800599403,
    0.14327497897351346, 0.1407859498144447, 0.13830811644855073,
    0.13584147657125376, 0.13338602969166916, 0.13094177717364436,
    0.12850872227999957, 0.1260868702201859, 0.12367622820159657,
    0.1212768054847903, 0.11888861344291006, 0.11651166562561087,
    0.11414597782783849, 0.11179156816383809, 0.1094484571468118,
    0.1071166677746838, 0.10479622562248707, 0.10248715894193525,
    0.10018949876881002, 0.09790327903886246, 0.095628536713009,
    0.09336531191269101, 0.09111364806637376, 0.08887359206827589,
    0.08664519445055807, 0.08442850957035347, 0.0822235958132029,
    0.08003051581466307, 0.07784933670209612, 0.07568013035892718,
    0.07352297371398132, 0.0713779490588904, 0.06924514439700676,
    0.0671246538277885, 0.0650165779712429, 0.06292102443775814,
    0.06083810834953988, 0.05876795292093374, 0.0567106901062029,
    0.05466646132488892, 0.05263541827679219, 0.05061772386094778,
    0.04861355321586854, 0.04662309490193038, 0.044646552251294463,
    0.04268414491647446, 0.04073611065594094, 0.03880270740452615,
    0.036884215688567305, 0.034980941461716125, 0.03309321945857858,
    0.0312214171919203, 0.02936593975813336, 0.027527235669603113,
    0.02570580400854891, 0.02390220330579588, 0.02211706270730885,
    0.02035109623004451, 0.018605121275724622, 0.016880083152543142,
    0.01517708830793531, 0.013497450601739867, 0.011842757857907879,
    0.010214971439701459, 0.008616582769398726, 0.007050875471373222,
    0.0055224032992509916, 0.0040379725933630236, 0.0026090727461021593,
    0.001260285930498598,
]

# the scalar code's own copies of _KI and _WI, so that a table changed in
# the replica alone shows at the guard
_ki, _wi = _KI.tolist(), _WI.tolist()


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive SeedSequence hash."""
    while True:
        nxt = (init * mult) & MASK32
        yield init, nxt
        init = nxt


def _hashmix(value, constants):
    xor, mult = next(constants)
    value = ((value ^ xor) * mult) & MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    value = (x * _MIX_MULT_L - y * _MIX_MULT_R) & MASK32
    return value ^ (value >> _XSHIFT)


def _state_words(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(4, np.uint64) as eight uint32
    words, the low half of each uint64 first, for at most four entropy
    words (ints, or uint64 arrays of one word per index): the pool is the
    words padded with zeros."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    padded = entropy + [entropy[0] * 0] * (_POOL_SIZE - len(entropy))
    pool = [_hashmix(word, constants) for word in padded]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    return [_hashmix(pool[i % _POOL_SIZE], constants) for i in range(8)]


def _seed_words(seed: int) -> list[int]:
    """SeedSequence takes an int as its uint32 words, lowest first: a seed
    below 2**64 is one or two words."""
    return [seed & MASK32, seed >> 32] if seed > MASK32 else [seed]


def _carry(columns: list) -> list:
    """32-bit limbs, mod 2**128, of a number given as column sums below 2**63
    (ints, or uint64 arrays of one number per index)."""
    limbs, carry = [], 0
    for column in columns:
        column = column + carry
        limbs.append(column & MASK32)
        carry = column >> 32
    return limbs


def _step(state: list, inc: list) -> list:
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


def _pcg64(w: list) -> tuple[list, list]:
    """PCG64's (state, inc) as 32-bit limbs, seeded from the eight words w
    of _state_words, whose uint64 words v[i] = w[2i] | w[2i+1] << 32 give
    the seed v[0] << 64 | v[1] and the increment v[2] << 64 | v[3]: state 0,
    a step, the seed added, a step."""
    inc = _carry([2 * w[6] + 1, 2 * w[7], 2 * w[4], 2 * w[5]])
    return _step(_carry([x + y for x, y in zip(inc, (w[2], w[3], w[0], w[1]))]), inc), inc


def _seeded(seed: int, indices: range) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """PCG64's (state, inc) as 32-bit limbs, seeded from SeedSequence((seed,
    index)) for every index.

    The index is always two words here, so the pool holds at most four
    words, and a zero high word hashes as the zero padding of a one-word
    index does."""
    index = np.arange(indices.start, indices.stop, dtype=np.uint64)
    words = [np.full(len(indices), w, dtype=np.uint64) for w in _seed_words(seed)]
    return _pcg64(_state_words(words + [index & MASK32, index >> 32]))


def replica(
    seed: int, indices: range, fraction: float, k_red: int, k_irr: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(fast, reducible, j, u, g, seeded): draw()'s stream for every index of
    indices (a range of step 1), as uint64 array arithmetic alone.

    fast marks the indices whose draws stayed on the common path of every
    routine; the values of the others are meaningless.  g has one row of
    four Gaussians per index.  seeded holds each index's PCG64 state right
    after seeding, one row (state low, state high, inc low, inc high) of
    64-bit words per index, from which draws() completes the slow ones.
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


class _PCG64:
    """numpy's PCG64 as one 128-bit int, with the high 32-bit half of an
    output that next32 keeps for its next call."""

    __slots__ = ("state", "inc", "half")

    def __init__(self, state: int, inc: int):
        self.state, self.inc, self.half = state, inc, None

    def next64(self) -> int:
        """One step, then the XSL-RR output."""
        state = self.state = (self.state * _PCG_MULT + self.inc) & MASK128
        high = state >> 64
        value, rot = high ^ (state & MASK64), high >> 58
        return ((value >> rot) | (value << (64 - rot))) & MASK64

    def next32(self) -> int:
        """The low half of a fresh output, or the high half of the last."""
        if self.half is None:
            raw = self.next64()
            self.half = raw >> 32
            return raw & MASK32
        half, self.half = self.half, None
        return half

    def random(self) -> float:
        """The top 53 bits of an output times 2**-53."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)


def _integer(bits: _PCG64, k: int) -> int:
    """integers(0, k): nothing drawn for k == 1, one 32-bit half for
    k == 2**32, else Lemire's m = half * k, drawn again while its low word
    is below 2**32 mod k."""
    if k == 1:
        return 0
    if k == K_MAX:
        return bits.next32()
    m = bits.next32() * k
    if m & MASK32 < k:
        threshold = K_MAX % k
        while m & MASK32 < threshold:
            m = bits.next32() * k
    return m >> 32


def _normal(bits: _PCG64) -> float:
    """numpy's random_standard_normal: the ziggurat's layer, sign and
    magnitude from one output; outside the layer's rectangle the wedge test
    against _FI, or in layer 0 Marsaglia's tail beyond _R."""
    while True:
        r = bits.next64()
        layer, negative, rabs = r & 0xFF, r >> 8 & 1, r >> 9 & ((1 << 52) - 1)
        x = rabs * _wi[layer]
        if negative:
            x = -x
        if rabs < _ki[layer]:
            return x
        if layer == 0:  # the tail's sign is bit 8 of rabs, not the sign bit
            while True:
                xx = -_INV_R * math.log1p(-bits.random())
                yy = -math.log1p(-bits.random())
                if yy + yy > xx * xx:
                    return -(_R + xx) if rabs >> 8 & 1 else _R + xx
        if (_FI[layer - 1] - _FI[layer]) * bits.random() + _FI[layer] < math.exp(-0.5 * x * x):
            return x


def _complete(
    state: int, inc: int, fraction: float, k_red: int, k_irr: int
) -> tuple[bool, int, float, np.ndarray]:
    """One draw (reducible, j, u, g) from a seeded PCG64 (state, inc): the
    calls, in their order, that define every sample.

    j is the raw reducible circle (K = k_red) or the index into
    enumerate_irr (K = k_irr), u the uniform that becomes the circle angle
    2*pi*u or the coordinate t, and g the four Gaussians of the Haar
    conjugator, each normal()'s loc + scale * x, which turns -0.0 into 0.0.
    """
    bits = _PCG64(state, inc)
    reducible = bits.random() < fraction
    j = _integer(bits, k_red if reducible else k_irr)
    return reducible, j, bits.random(), np.array([0.0 + 1.0 * _normal(bits) for _ in range(4)])


def draw(
    seed: int, index: int, fraction: float, k_red: int, k_irr: int
) -> tuple[bool, int, float, np.ndarray]:
    """The index-th draw of the stream, as default_rng((seed, index)) makes
    it: PCG64 seeded as _seeded seeds it, in Python ints, then _complete."""
    limbs = _pcg64(_state_words(_seed_words(seed) + [index & MASK32, index >> 32]))
    state, inc = (sum(limb << (32 * i) for i, limb in enumerate(q)) for q in limbs)
    return _complete(state, inc, fraction, k_red, k_irr)


def _bits(reducible, j, u, g) -> tuple[bool, int, bytes]:
    """One index's draw with its floats as IEEE bytes, so -0.0 != 0.0."""
    return bool(reducible), int(j), np.append(u, g).tobytes()


def draws(
    seed: int, indices: range, fraction: float, k_red: int, k_irr: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """draw(seed, i, fraction, k_red, k_irr) for every i in indices (a range
    of step 1), as arrays (reducible, j, u, g), g one row per index.

    The replica computes them; an index it leaves slow is completed by
    _complete from its seeded state.  In each GUARD block the first index
    of either kind is drawn again by draw() and must agree bit for bit,
    else RuntimeError.
    """
    args = (fraction, k_red, k_irr)
    fast, *arrays, seeded = replica(seed, indices, *args)
    slow = np.flatnonzero(~fast)
    completed = (
        _complete(s_lo | s_hi << 64, i_lo | i_hi << 64, *args)
        for s_lo, s_hi, i_lo, i_hi in seeded[slow].tolist()
    )
    for column, values in zip(arrays, zip(*completed)):
        column[slow] = values
    # the first position of each (GUARD block, fast) key: the guarded indices
    key = np.arange(indices.start, indices.stop) // GUARD * 2 + fast
    for pos in np.unique(key, return_index=True)[1].tolist():
        if _bits(*draw(seed, indices[pos], *args)) != _bits(*(c[pos] for c in arrays)):
            raise RuntimeError(
                f"tkchar.stream's array replica differs from draw(), its definition of "
                f"numpy's default_rng((seed, index)) stream, at ({seed}, {indices[pos]})"
            )
    return tuple(arrays)
