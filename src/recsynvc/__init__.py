"""Recognition-synthesis voice conversion.

Content features are extracted from source speech, then a trained decoder
renders them as mel spectrograms in the target voice, either for one fixed
target (A2O) or for arbitrary targets via speaker embeddings (A2A).

Library names are imported from the modules that define them, for example
``from recsynvc.converter import convert``; the package itself holds only
``__version__``, so importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
